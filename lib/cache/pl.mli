(** Partition-Locked (PL) cache.

    A set-associative cache whose lines carry a protection bit. The
    intended use (paper Section 2.2.1) is to prefetch-and-lock all
    security-critical lines before the security-critical operation. On a
    miss, the replacement victim is chosen as usual over all ways (which is
    why the paper's Table 3 keeps p2 = 1/W for PL); if the chosen victim is
    protected, the access is served read-through — the protected line is
    not evicted and the accessor's line is not cached (p3 = 0). *)

type t

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t

val config : t -> Config.t
val access : t -> pid:int -> int -> Outcome.t

val lock_line : t -> pid:int -> int -> bool
(** Prefetch (if absent) and protect a line. The locking fill prefers
    invalid ways, then unlocked ways by policy; returns [false] if every
    way of the set is already locked by another line. Locking an already
    cached line just sets its bit. *)

val unlock_line : t -> pid:int -> int -> bool
(** Clear the protection bit; only the locking owner may unlock. Returns
    whether a bit was cleared. *)

val locked_lines : t -> int list
(** Memory lines currently locked, ascending. *)

val peek : t -> pid:int -> int -> bool
val flush_line : t -> pid:int -> int -> bool
(** Flush refuses to remove a line locked by a different pid (returns
    [false]), mirroring that eviction of protected lines is impossible. *)

val flush_all : t -> unit

val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one PL step
    ([run_kernel] ["pl"]). *)
