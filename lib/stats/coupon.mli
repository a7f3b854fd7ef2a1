(** Coupon-collector ("ball-picking") probabilities.

    Section 5 of the paper models cache cleaning under random replacement as
    picking balls with replacement: the attacker succeeds when every one of
    the [w] lines of a set has been chosen at least once within [k] trials.
    The closed form is the inclusion-exclusion sum

    P(covered) = sum_{i=0}^{w} (-1)^i C(w,i) (1 - i/w)^k . *)

val prob_all_covered : bins:int -> trials:int -> float
(** [prob_all_covered ~bins ~trials] is the probability that [trials]
    independent uniform draws over [bins] cells touch every cell.
    Result clamped to [0, 1]. [bins] must be positive, [trials] non-negative. *)

val prob_cell_hit : bins:int -> trials:int -> float
(** Probability that one designated cell is touched at least once:
    [1 - (1 - 1/bins)^trials]. *)

val expected_trials : bins:int -> float
(** Expected number of draws to cover all cells: [bins * H(bins)]. *)
