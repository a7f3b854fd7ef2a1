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

val locked_lines : t -> int list
(** Memory lines currently locked, ascending. *)

val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one PL step
    ([run_kernel] ["pl"]).

    [lock_line] prefetches (if absent) and protects a line. The locking
    fill prefers invalid ways, then unlocked ways by policy; it returns
    [false] if every way of the set is already locked by another line.
    Locking an already cached line just sets its bit. [unlock_line]
    clears the bit; only the locking owner may, and it returns whether a
    bit was cleared. [flush_line] refuses to remove a line locked by a
    different pid (returns [false]), mirroring that eviction of
    protected lines is impossible. *)
