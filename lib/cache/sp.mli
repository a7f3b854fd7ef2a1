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

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  ?partitions:int ->
  home:(int -> int) ->
  partition_of_pid:(int -> int) ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** [home line] gives the line's home partition, [partition_of_pid pid] the
    partition a process may fill into. Both must return values in
    [0, partitions-1] (checked on use). [partitions] defaults to 2 and must
    divide the set count. *)

val create_two_domain :
  ?config:Config.t ->
  ?policy:Policy.t ->
  ?partitions:int ->
  victim_pid:int ->
  victim_lines:(int * int) list ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** Two-domain construction (what {!Factory.build} uses): partition 0
    belongs to [victim_pid] and homes every line inside the inclusive
    ranges [victim_lines]; everything else is partition 1. [partitions]
    (default 2) only sets the set split: partitions past the first two
    stay unused. *)

val config : t -> Config.t
val sets_per_partition : t -> int
val access : t -> pid:int -> int -> Outcome.t
val peek : t -> pid:int -> int -> bool
val flush_line : t -> pid:int -> int -> bool
val flush_all : t -> unit
val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one SP step
    ([run_kernel] ["sp"]). *)
