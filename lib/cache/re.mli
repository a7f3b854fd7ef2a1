(** Random Eviction (RE) cache (Demme et al. 2012, as modelled by the paper).

    A conventional cache (direct-mapped in the paper's Table 4
    configuration) that additionally evicts one uniformly random cache slot
    every [interval] memory accesses — "20% random eviction" means
    [interval = 5]. The paper notes the periodic evictions also act as
    free evictions for an attacker cleaning the cache (Section 5F). *)

type t

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  ?interval:int ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** Defaults: {!Config.direct_mapped}, [interval = 10] (the paper's "10%
    random eviction"). [interval] must be positive. *)

val random_evictions : t -> int
(** How many periodic evictions have fired so far (whether or not the
    chosen slot held a valid line). *)

val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one RE step
    ([run_kernel] ["re"]). *)
