(** Noisy cache: a conventional set-associative cache whose timing channel
    carries Gaussian observation noise.

    The cache logic is exactly {!Sa}; the only difference is the non-zero
    [sigma] surfaced through the engine, which {!Timing.observe} uses to
    blur the attacker's measurements (the paper's edge e5, Figure 4). *)

type t

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  ?sigma:float ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** [sigma] defaults to 1.0, the paper's Table 4 configuration (noise
    standard deviation equal to the hit/miss time difference). Must be
    finite and non-negative. *)

val sigma : t -> float

val engine : t -> Engine.t
(** The underlying {!Sa.engine} with this cache's name and [sigma]. *)
