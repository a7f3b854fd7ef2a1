(** Pearson chi-square goodness-of-fit testing.

    The simulator's security arguments rest on distributional claims —
    "the replacement victim is uniform over the ways", "the RF fill is
    uniform over the window", "Newcache evicts a uniformly random
    physical line". The test suite checks those claims with a proper
    goodness-of-fit statistic rather than ad-hoc min/max bounds. *)

val statistic : observed:int array -> expected:float array -> float
(** Pearson's X^2 = sum (O_i - E_i)^2 / E_i. Arrays must have equal
    positive length and every expected count must be positive. *)

val cdf : df:int -> float -> float
(** P(X^2_df <= x) via the Wilson-Hilferty cube-root normal
    approximation (accurate to ~1e-3 for df >= 3, ample for testing). *)

val critical_value : df:int -> alpha:float -> float
(** The x with cdf df x = 1 - alpha, by bisection. [alpha] in (0, 1). *)

val uniform_fit : observed:int array -> float
(** p-value for "these counts are uniform draws over the cells". *)

val fits_uniform : ?alpha:float -> int array -> bool
(** [fits_uniform ~alpha counts]: true unless uniformity is rejected at
    level [alpha] (default 0.001 — conservative, to keep the test suite
    deterministic-ish under seeded RNGs). *)
