(** Non-monopolizable (Nomo) cache.

    Way-based partitioning: the first [reserved] ways of every set are
    reserved for the protected process; unprotected processes may fill and
    evict only the remaining shared ways (so an attacker can never occupy a
    whole set — hence "non-monopolizable"). The protected process fills
    its reserved ways while it holds fewer than [reserved] lines in the
    set, then spills into the shared ways, which is when it starts
    interfering with the attacker (the paper's "if the victim's data exceed
    the reserved ways" case). Lookup remains global across all ways. *)

type t

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  ?reserved:int ->
  protected_pids:int list ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** [reserved] defaults to [ways / 4] (the paper's configuration).
    Raises [Invalid_argument] unless [0 <= reserved < ways]. *)

val reserved_ways : t -> int
val shared_ways : t -> int
val is_protected : t -> int -> bool
val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one Nomo step
    ([run_kernel] ["nomo"]). *)
