(** Statically Partitioned (SP) cache.

    The sets are split into static partitions. Every memory line has a
    {e home} partition — the partition of the security domain that owns the
    data (the victim's tables and private data live in the victim's
    partition; shared read-only libraries are homed with their owner, the
    victim). Lookups are physically addressed and global: any process can
    hit on a cached line (so flush-and-reload on genuinely shared lines
    still works, matching the paper's Table 6 where SP has Type 3/4 PAS of
    1.0). What partitioning forbids is {e cross-partition fills}: a miss by
    a process on a line homed outside its own partition is served
    read-through, caching nothing and evicting nothing. That is what makes
    p1 = 0 for Type 1/2 attacks and pre-PAS = 0 (Section 5C). *)

type t

val create_two_domain :
  ?config:Config.t ->
  ?policy:Policy.t ->
  ?partitions:int ->
  victim_pid:int ->
  victim_lines:(int * int) list ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** The constructor (what {!Factory.build} uses). Partition 0 belongs to
    [victim_pid] and homes every line inside the inclusive ranges
    [victim_lines]; every other line and every other pid is partition 1.
    [partitions] (default 2) only sets the set split: partitions past the
    first two stay unused. The homing is fixed here as data — the victim
    pid, the ranges as a flat array and the per-partition set mask — so
    an access calls no closure: a line's set is
    [home·per + line land (per - 1)].

    Raises [Invalid_argument] unless [partitions] is at least 2 and
    divides the set count. The set count is a power of two ({!Config.v}),
    hence so is [per]. *)

val sets_per_partition : t -> int
val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one SP step
    ([run_kernel] ["sp"]). *)
