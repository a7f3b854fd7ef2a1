(** The trial runtime's experiments-side driver.

    Every Monte-Carlo experiment in this layer is one campaign: a batch
    plan over the trial index space ({!Cachesec_runtime.Scheduler.plan})
    in which each batch builds its own fully independent world — a fresh
    {!Setup.t} (engine, victim, RNG) seeded from the pure hash
    {!Cachesec_runtime.Run.seed_for_batch} — runs the attack's
    [run_span] over its slice, and the mergeable partials are folded
    back together in batch order. Because the plan and the seeds depend
    only on the experiment definition (never on [jobs]), running with
    [jobs:1] and [jobs:n] produces bit-identical results; [jobs] buys
    wall-clock only.

    There is one campaign path, {!Cachesec_runtime.Adaptive}'s rounds.
    A campaign with a stopping target runs its plan in geometrically
    growing rounds and may stop at a round boundary; a campaign without
    one is the same plan run as a single round. Either way the batches
    are merged in batch order, so the two differ only in how many
    batches run.

    Every entry point is ctx-first and non-blocking: one
    {!Cachesec_runtime.Run.ctx} carries seed, worker count, scale and
    telemetry, and [submit_*] opens the campaign's span
    and dispatches its first round onto the persistent
    {!Cachesec_runtime.Pool} at once, returning an ['a pending].
    Finalize and the driver counters run at {!await}; the blocking form
    of a campaign is [await (submit_… )]. Submitting several campaigns
    before the first await pipelines them: their shards share the one
    pool queue, so workers never idle at a campaign's join barrier
    while another campaign has runnable shards. Results are
    bit-identical between sequential and pipelined execution; with
    [jobs <= 1] a [submit_*] runs eagerly.

    Telemetry: with an active context each campaign is a span (nested
    under [ctx.parent]) and the scheduler emits per-batch and
    per-domain events under it. A campaign without a target gauges
    [trials] (its total) at submit. One with a target gauges
    [trials_cap] at submit and the executed [trials] at await, and
    counts [driver.trials_saved] ([cap - trials]). Both count
    [driver.batches] and [driver.trials], the batches and trials that
    ran. The engines' {!Cachesec_cache.Counters} and the attack trial
    counts are sampled once per finished batch — the per-access hot
    path is never instrumented. *)

open Cachesec_cache
open Cachesec_attacks
open Cachesec_stats
open Cachesec_runtime

(** {1 Pending campaigns} *)

type 'a pending
(** A submitted campaign whose finalize has not run yet. Join with
    {!await} (memoizing: a second await returns the cached value or
    re-raises the cached failure). *)

val await : 'a pending -> 'a
(** Block until the campaign's last round finished, record driver
    counters, finalize and close the campaign's span. Re-raises the
    first shard failure with its backtrace. Must be called from outside
    the pool. *)

val await_all : 'a pending list -> 'a list
(** Join every pending in list (i.e. submission) order, then re-raise
    the first failure in that order, if any. A failing campaign does not
    leave the later ones unjoined: each has finished its rounds and
    closed its span before [await_all] raises. *)

val pending_of_thunk : (unit -> 'a) -> 'a pending
(** Defer arbitrary join logic (run once, memoized) — used by layers
    that need to close their own telemetry spans around an inner
    {!await}. *)

val map_pending : ('a -> 'b) -> 'a pending -> 'b pending
(** Post-process a campaign's result at await time (e.g. wrap a raw
    attack result into a report cell) without forcing the join now. *)

(** {1 Campaigns} *)

type 'a campaign = {
  value : 'a;  (** the finalized result, over the trials that ran *)
  trials : int;  (** trials actually executed *)
  cap : int;  (** the trial budget: the target's [max_trials], or the total *)
  rounds : int;  (** rounds executed ([1] without a target) *)
  stopped_early : bool;  (** true iff the stopping rule fired below cap *)
  achieved : float;
      (** the final merged estimate's CI half-width at
          [target.confidence] (absolute for proportion estimators,
          relative for mean estimators — see
          {!Cachesec_stats.Sequential.achieved}); [nan] without a
          target, which measures no interval *)
}

type ('c, 'r) attack
(** One attack, stated once: its span-name label, default batch size,
    per-batch [run_span] call, in-place merge, stopping estimator and
    finalize, for a config ['c] and a result ['r]. *)

val evict_time : (Evict_time.config, Evict_time.result) attack
(** Stops on the mean observed encryption time ({!Evict_time.observe},
    relative half-width). *)

val prime_probe : (Prime_probe.config, Prime_probe.result) attack
(** Stops on the best candidate's per-trial hit rate
    ({!Prime_probe.observe}, Wilson half-width). *)

val collision : (Collision.config, Collision.result) attack
val flush_reload : (Flush_reload.config, Flush_reload.result) attack

val submit_attack :
  ?target:Sequential.target -> ('c, 'r) attack -> Run.ctx -> Spec.t -> 'c ->
  'r campaign pending
(** Run the attack over the config's [trials] as one round or, with
    [?target], run to confidence: the same batch plan capped at
    [target.max_trials] (the config's own [trials] is then ignored),
    partitioned into deterministic geometric rounds. After each round
    the cumulative batch-order merge is handed to the attack's
    estimator and {!Cachesec_stats.Sequential.decide} chooses between
    stopping and dispatching the next round. The decision is a function
    of [(seed, round plan, merged estimate)] only — never of [jobs].

    A targeted campaign shards finer than the attack's default batch
    size ([min default (ceil (cap / 8))]) so quick-scale caps contain
    several round boundaries.
    The span is named [<label>:<spec>], with an [:adaptive] suffix
    under a target. Raises [Invalid_argument] on a non-positive trial
    count. *)

val submit_evict_time :
  Run.ctx -> Spec.t -> Evict_time.config -> Evict_time.result pending

val submit_prime_probe :
  Run.ctx -> Spec.t -> Prime_probe.config -> Prime_probe.result pending

val submit_collision :
  Run.ctx -> Spec.t -> Collision.config -> Collision.result pending

val submit_flush_reload :
  Run.ctx -> Spec.t -> Flush_reload.config -> Flush_reload.result pending

(** {1 Pre-PAS cleaning game} *)

val submit_cleaning_game :
  Run.ctx -> Spec.t -> accesses:int -> samples:int -> float pending
(** Sharded {!Cleaner.monte_carlo}: fraction of cleaning-game wins over
    [samples] independent games of [accesses] attacker reads. *)

val submit_cleaning_game_adaptive :
  Run.ctx -> Spec.t -> accesses:int -> target:Sequential.target ->
  float campaign pending
(** Stops on the win rate's Wilson half-width; the cap replaces the
    fixed [samples] argument. *)
