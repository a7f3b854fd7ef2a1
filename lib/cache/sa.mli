(** Conventional set-associative cache (the paper's baseline).

    Physically indexed and tagged: any process hits on any cached line with
    a matching address, which is what makes the conventional cache leak
    through all four attack types. With [ways = lines] this is the fully
    associative cache; the paper's baseline uses random replacement "since
    this gives better resilience against cache attackers" (Section 3.7). *)

type t

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** Defaults: {!Config.standard}, random replacement. *)

val step : Policy.t -> Backing.t -> pid:int -> int -> int
(** The SA transition: one access by [pid] to a line of the backing
    store, returning its {!Kernel} step code. RE's step is this plus its
    periodic eviction. *)

val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one SA step,
    instantiated for the cache's policy ([run_kernel] ["sa-<policy>"]). *)
