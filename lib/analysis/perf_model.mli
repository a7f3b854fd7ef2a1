(** Analytical cache hit-rate models under the independent reference
    model (IRM), used to sanity-check the simulator's performance
    numbers the same way Edge_probs sanity-checks its security numbers.

    - LRU: Che's approximation — the characteristic time T solves
      sum_i (1 - exp(-p_i T)) = C, and the hit rate is
      sum_i p_i (1 - exp(-p_i T)).
    - Random/FIFO: Fagin-King — per-item hit probability
      h_i = p_i T / (1 + p_i T) with sum_i h_i = C.

    Both are classical results accurate to a percent or two for
    realistic skews, which the test suite checks against the simulator
    on fully-associative geometries. *)

val zipf_popularity : n:int -> exponent:float -> float array
(** Normalised Zipf weights over [n] items. *)

val lru_hit_rate : popularity:float array -> cache_lines:int -> float
(** Che's approximation. [cache_lines] must be positive and smaller than
    the item count (otherwise the hit rate is trivially 1). *)

val random_hit_rate : popularity:float array -> cache_lines:int -> float
(** Fagin-King fixed point for random/FIFO replacement.
    The model-vs-simulation validation table lives in
    {!Cachesec_experiments.Performance.model_table}. *)
