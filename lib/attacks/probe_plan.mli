(** Precompiled prime/probe plan: the allocation-free attack fast path.

    A plan snapshots one attacker's conflict-line addresses for EVERY
    cache set into a single flat int array ([ways] lines per set,
    set-major) at construction, and owns per-set scratch buffers for the
    probe results. A prime-probe trial then runs

    {[
      Probe_plan.prime_all plan;
      (* ... victim activity ... *)
      Probe_plan.probe_all plan rng;
      (* read Probe_plan.classified_misses plan set, etc. *)
    ]}

    without allocating: the addresses are precompiled, the results are
    written in place as unboxed ints/floats, and nothing survives the
    trial but the scratch contents.

    {b Lifetime and ownership.} A plan is valid for the lifetime of the
    engine (and [base]) it was built from — line addresses depend only on
    the engine's geometry, so one plan per [Setup]/engine is the intended
    shape; build it once per campaign shard, outside the trial loop. The
    scratch buffers are overwritten by every [probe_*] call and must be
    consumed (or copied) before the next probe; plans are therefore not
    shareable between domains or concurrent trials.

    {b Determinism.} Access order is identical to the historical
    list-based [Attacker.evict_set]/[probe_all_sets] path (set 0..sets-1,
    line k = 0..ways-1 within a set) and the probe consumes the
    observation RNG exactly as [Attacker.probe_all_sets] does, so campaigns
    produce bit-for-bit identical results (pinned by the attack golden
    digests in [test/golden/attacks.golden]). *)

open Cachesec_cache

type t

val make : ?base:int -> Engine.t -> pid:int -> t
(** Precompile the plan for [engine]'s geometry. [base] defaults to
    {!Attacker.default_base}; lines follow
    [Attacker.nth_conflict_line engine.config ~base ~set k]. *)

val sets : t -> int
val ways : t -> int

val line : t -> set:int -> int -> int
(** [line t ~set k] — the [k]-th precompiled conflict line of [set]
    (unchecked indexing into the flat array). *)

val prime_all : t -> unit
(** Access the [ways] plan lines of every set, ascending (the prime /
    evict step). *)

val probe_all : t -> Cachesec_stats.Rng.t -> unit
(** Re-access the plan lines of every set, ascending, overwriting each
    set's scratch slots: true misses, classified misses (after
    per-access noisy-time classification; equal to true misses when
    sigma = 0) and total observed time. The RNG is consumed exactly as
    the record-returning [Attacker.probe_all_sets] consumes it, set by set
    (not at all when sigma = 0). *)

val true_misses : t -> int -> int
(** Scratch readback for one set, valid until the next probe of it. *)

val classified_misses : t -> int -> int
val time : t -> int -> float
