(** The observation-noise edge probability p5 (paper Section 3.7,
    Figure 4).

    Hit times are N(0, sigma^2) and miss times N(1, sigma^2) in units of
    the hit/miss gap; the attacker thresholds at 1/2, so his per-
    observation success probability is Phi(1/(2 sigma)) — equivalently
    1 - (1/2) erfc(1/(2 sqrt(2) sigma)), the form printed in the paper. *)

val p5 : sigma:float -> float
(** [p5 ~sigma]; 1.0 when sigma = 0. Raises on negative sigma. *)

val sigma_for_p5 : target:float -> float
(** Inverse: the sigma at which p5 equals [target], found by bisection.
    [target] must lie in (0.5, 1.0). *)

val figure4_series : sigmas:float list -> (float * float) list
(** (sigma, p5) pairs — the curve of the paper's Figure 4. *)

val trials_to_overcome : sigma:float -> confidence:float -> int
(** How many repeated observations the attacker must average before the
    averaged classifier reaches [confidence]: the smallest n with
    Phi(sqrt n / (2 sigma)) >= confidence. Shows why noise alone only
    slows an attacker (the basis of the paper's 'X' for the noisy cache
    in Table 7). *)
