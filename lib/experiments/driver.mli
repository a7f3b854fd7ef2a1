(** The trial runtime's experiments-side driver.

    Every Monte-Carlo experiment in this layer is expressed as a batch
    plan over the trial index space ({!Cachesec_runtime.Scheduler.plan}):
    each batch builds its own fully independent world — a fresh
    {!Setup.t} (engine, victim, RNG) seeded from the pure hash
    {!Cachesec_runtime.Run.seed_for_batch} — runs the attack's
    [run_span] over its slice, and the mergeable partials are folded
    back together in batch order. Because the plan and the seeds depend
    only on the experiment definition (never on [jobs]), running with
    [jobs:1] and [jobs:n] produces bit-identical results; [jobs] buys
    wall-clock only.

    Every entry point is ctx-first ([run_*]): one
    {!Cachesec_runtime.Run.ctx} carries seed, worker count, batch
    override and telemetry. With an active telemetry context each
    campaign is wrapped in a span (nested under [ctx.parent], carrying a
    [trials] gauge), the scheduler emits per-batch and per-domain
    events under it, and the engines' {!Cachesec_cache.Counters} are
    sampled into telemetry counters once per finished batch — the
    per-access hot path is never instrumented.

    Since the pool refactor every campaign also comes in a non-blocking
    [submit_*] form returning an ['a pending]: the campaign's span is
    opened and its shard tasks dispatched onto the persistent
    {!Cachesec_runtime.Pool} immediately, while the batch-order merge,
    driver counters and finalize run at {!await}. Submitting several
    campaigns before the first await pipelines them — their shards share
    the one pool queue, so workers never idle at a campaign's join
    barrier while another campaign has runnable shards. Results are
    bit-identical between sequential and pipelined execution (merges are
    deferred, never reordered); with [jobs <= 1] a [submit_*] runs
    eagerly and pipelining degrades to the sequential order. *)

open Cachesec_cache
open Cachesec_attacks
open Cachesec_stats
open Cachesec_runtime

(** {1 Pending campaigns} *)

type 'a pending
(** A submitted campaign whose merge/finalize has not run yet. Join with
    {!await} (memoizing: a second await returns the cached value or
    re-raises the cached failure). *)

val await : 'a pending -> 'a
(** Block until the campaign's shards finished, fold the partials in
    batch order, record driver counters, finalize and close the
    campaign's span. Re-raises the first shard failure with its
    backtrace. Must be called from outside the pool. *)

val await_all : 'a pending list -> 'a list
(** [List.map await] — join in list (i.e. submission) order. *)

val pending_value : 'a -> 'a pending
(** An already-available result, for mixing computed-inline values into
    a pending pipeline. *)

val pending_of_thunk : (unit -> 'a) -> 'a pending
(** Defer arbitrary join logic (run once, memoized) — used by layers
    that need to close their own telemetry spans around an inner
    {!await}. *)

val map_pending : ('a -> 'b) -> 'a pending -> 'b pending
(** Post-process a campaign's result at await time (e.g. wrap a raw
    attack result into a report cell) without forcing the join now. *)

(** {1 Fixed-count campaigns}

    Each experiment has a blocking [run_*] ≡ [await ∘ submit_*]. *)

val submit_evict_time :
  Run.ctx -> Spec.t -> Evict_time.config -> Evict_time.result pending

val submit_prime_probe :
  Run.ctx -> Spec.t -> Prime_probe.config -> Prime_probe.result pending

val submit_collision :
  Run.ctx -> Spec.t -> Collision.config -> Collision.result pending

val submit_flush_reload :
  Run.ctx -> Spec.t -> Flush_reload.config -> Flush_reload.result pending

val submit_cleaning_game :
  Run.ctx -> Spec.t -> accesses:int -> samples:int -> float pending

val submit_timing_stats :
  ?lo:float -> ?hi:float -> ?bins:int -> Run.ctx -> Spec.t -> trials:int ->
  unit -> (Histogram.t * Summary.t) pending

val run_evict_time :
  Run.ctx -> Spec.t -> Evict_time.config -> Evict_time.result

val run_prime_probe :
  Run.ctx -> Spec.t -> Prime_probe.config -> Prime_probe.result

val run_collision : Run.ctx -> Spec.t -> Collision.config -> Collision.result

val run_flush_reload :
  Run.ctx -> Spec.t -> Flush_reload.config -> Flush_reload.result

val run_cleaning_game :
  Run.ctx -> Spec.t -> accesses:int -> samples:int -> float
(** Sharded {!Cleaner.monte_carlo}: fraction of cleaning-game wins over
    [samples] independent games of [accesses] attacker reads. *)

val run_timing_stats :
  ?lo:float -> ?hi:float -> ?bins:int -> Run.ctx -> Spec.t -> trials:int ->
  unit -> Histogram.t * Summary.t
(** Distribution of observed whole-encryption times over random
    plaintexts (the simulated counterpart of the paper's hit/miss timing
    separation): per-batch histograms and summaries merged with
    {!Histogram.merge} / {!Summary.merge}. *)

(** {1 Adaptive (run-to-confidence) campaigns}

    Each adaptive variant executes the same batch plan as a fixed
    campaign capped at [target.max_trials], but partitioned into
    deterministic geometrically-growing rounds
    ({!Cachesec_runtime.Adaptive}): after each round the cumulative
    batch-order merge is handed to the attack's estimator hook
    ([observe]) and {!Cachesec_stats.Sequential.decide} chooses between
    stopping and dispatching the next round. The decision is a function
    of [(seed, round plan, merged estimate)] only — never of [jobs] —
    so adaptive runs keep the jobs:1 ≡ jobs:N and sequential ≡
    pipelined bit-identity of the fixed paths.

    Adaptive campaigns default to a finer batch size
    ([min default_batch (ceil (cap / 8))]) so quick-scale caps contain
    several round boundaries; [ctx.batch] still overrides it. The
    attack config's own [trials] field is ignored — the cap is
    [target.max_trials].

    Telemetry: the campaign span carries a [trials_cap] gauge at submit
    and a [trials] gauge (actual executed, post-early-stop) at await;
    [driver.trials] counts actual trials and [driver.trials_saved]
    counts [cap - actual]. *)

type 'a adaptive = {
  value : 'a;  (** the finalized result, over the trials that ran *)
  trials : int;  (** trials actually executed *)
  cap : int;  (** [target.max_trials] *)
  rounds : int;  (** rounds executed *)
  stopped_early : bool;  (** true iff the stopping rule fired below cap *)
  achieved : float;
      (** the final merged estimate's CI half-width at
          [target.confidence] (absolute for proportion estimators,
          relative for mean estimators — see
          {!Cachesec_stats.Sequential.achieved}) *)
}

val submit_evict_time_adaptive :
  Run.ctx -> Spec.t -> target:Sequential.target -> Evict_time.config ->
  Evict_time.result adaptive pending
(** Stops on the mean observed encryption time ({!Evict_time.observe},
    relative half-width). *)

val submit_prime_probe_adaptive :
  Run.ctx -> Spec.t -> target:Sequential.target -> Prime_probe.config ->
  Prime_probe.result adaptive pending
(** Stops on the best candidate's per-trial hit rate
    ({!Prime_probe.observe}, Wilson half-width). *)

val submit_collision_adaptive :
  Run.ctx -> Spec.t -> target:Sequential.target -> Collision.config ->
  Collision.result adaptive pending

val submit_flush_reload_adaptive :
  Run.ctx -> Spec.t -> target:Sequential.target -> Flush_reload.config ->
  Flush_reload.result adaptive pending

val submit_cleaning_game_adaptive :
  Run.ctx -> Spec.t -> accesses:int -> target:Sequential.target ->
  float adaptive pending
(** Stops on the win rate's Wilson half-width; the cap replaces the
    fixed [samples] argument. *)

val submit_timing_stats_adaptive :
  ?lo:float -> ?hi:float -> ?bins:int -> Run.ctx -> Spec.t ->
  target:Sequential.target -> unit ->
  (Histogram.t * Summary.t) adaptive pending
(** Stops on the merged summary's relative mean half-width. *)

val run_evict_time_adaptive :
  Run.ctx -> Spec.t -> target:Sequential.target -> Evict_time.config ->
  Evict_time.result adaptive

val run_prime_probe_adaptive :
  Run.ctx -> Spec.t -> target:Sequential.target -> Prime_probe.config ->
  Prime_probe.result adaptive

val run_collision_adaptive :
  Run.ctx -> Spec.t -> target:Sequential.target -> Collision.config ->
  Collision.result adaptive

val run_flush_reload_adaptive :
  Run.ctx -> Spec.t -> target:Sequential.target -> Flush_reload.config ->
  Flush_reload.result adaptive

val run_cleaning_game_adaptive :
  Run.ctx -> Spec.t -> accesses:int -> target:Sequential.target ->
  float adaptive

val run_timing_stats_adaptive :
  ?lo:float -> ?hi:float -> ?bins:int -> Run.ctx -> Spec.t ->
  target:Sequential.target -> unit -> (Histogram.t * Summary.t) adaptive
