(** Shared physical storage for the set-associative architecture models:
    flat {!Slab} field arrays viewed as [sets] groups of [ways], a
    global access sequence counter, per-cache counters and an RNG.

    The probes ({!find_tag}, {!find_tag_owned}, {!find}) are
    allocation-free bounded scans over the slabs; {!ways_of_set} builds
    a list, for cold paths. *)

type t = {
  cfg : Config.t;
  slab : Slab.t;  (** the line state of record (struct-of-arrays) *)
  mutable seq : int;
  counters : Counters.t;
  mutable rng : Cachesec_stats.Rng.t;
      (** every draw reads it here, so {!reset} can swap the stream *)
  sets : int;  (** [Config.sets cfg], precomputed off the access path *)
  set_mask : int;
      (** [sets - 1]; [sets] is a power of two for every {!Config.t} (see
          {!set_of}) *)
  mutable fetched : int;
  mutable evicted_owner : int;
  mutable evicted_line : int;
  mutable also_owner : int;
  mutable also_line : int;
      (** Step scratch, written by {!Kernel.fill} and {!Kernel.also_evict}:
          the line the access's fill installed, the [(owner, line)] that
          fill displaced and the second line the access displaced. Read
          back only when {!Kernel.record} or {!Kernel.finish} builds an
          outcome, for the step codes that say they are set. *)
}

val create : Config.t -> rng:Cachesec_stats.Rng.t -> t

val tick : t -> int
(** Advance and return the access sequence number. *)

val set_of : t -> int -> int
(** Conventional set index of a (non-negative) line number: equal to
    [Address.set_index cfg line], computed as [line land set_mask]. No
    division: {!Config.v} requires a power-of-two line count divided by
    [ways], so the set count is a power of two. Per-access hot path. *)

val find_tag : t -> set:int -> tag:int -> int
(** Global index of the valid line in [set] holding [tag], or -1.
    Allocation-free. *)

val find_tag_owned : t -> set:int -> tag:int -> owner:int -> int
(** As {!find_tag}, additionally requiring [owner] to have filled the
    line (RP's PID feature). Allocation-free. *)

val find : t -> int -> int
(** [find_tag] of a line in its conventional set ({!set_of}): the
    lookup of every engine that indexes conventionally. *)

val flush : t -> pid:int -> int -> bool
(** The clflush of a line a lookup returned: for an index [i >= 0],
    invalidate line [i], count a flush for [pid] and return [true]; for
    -1 (nothing found), [false]. *)

val ways_of_set : t -> set:int -> int list
(** Global line indices of a set, in way order (cold paths only, e.g.
    PL way-locking). *)

val flush_all : t -> unit
(** Invalidate every line, counting the displaced valid ones
    ({!Slab.clear}). *)

val reset : t -> rng:Cachesec_stats.Rng.t -> unit
(** Back to the state {!create} returned, drawing from [rng] from now
    on: every line invalid and every tree word zero ({!Slab.clear}, so
    the cost is the lines filled since the last clear), [seq] 0, the
    counters zero and the scratch fields -1. Invalid lines keep their
    timestamps, as after {!flush_all}: no victim choice reads them (an
    invalid way is always taken first) and {!Slab.dump} lists valid lines
    only. Allocates nothing. *)
