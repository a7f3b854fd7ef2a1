(** Persistent, process-global Domain pool.

    Spawned once per process and lazily sized to the largest worker
    count ever requested ({!ensure}); every layer of the system —
    scheduler shards, pipelined campaigns, report builders — dispatches
    its tasks into the one shared FIFO queue. Workers park on a
    condition variable between campaigns (no CPU cost), so the pool
    replaces the per-campaign [Domain.spawn]/[Domain.join] cycle the
    scheduler used to pay, and lets independent campaigns' shards
    overlap instead of idling at each campaign's join barrier.

    This module is the {e only} place in the codebase allowed to call
    [Domain.spawn].

    Determinism: the pool schedules opaque thunks; ordering between
    tasks is never semantics. Callers must make each task a pure
    function of its own inputs (in this codebase: RNG derived from
    [(seed, index)], results into per-index slots, merges in index
    order once a family has finished) — then results are bit-identical for any worker
    count, including zero ([{!submit}] degrades to eager inline
    execution when the pool was never started, keeping serial paths
    byte-identical to a pool-less world). *)

type 'a future
(** Handle to a submitted task's eventual result. *)

val ensure : workers:int -> unit
(** Grow the pool to at least [workers] Domains (never shrinks; capped
    at 126 to respect OCaml 5's 128-domain limit). The first spawn
    registers an [at_exit] shutdown that drains the queue and joins
    every worker; [ensure] raises [Invalid_argument] after it. *)

val workers : unit -> int
(** Current worker count ([0] until the first {!ensure}). *)

val submit : (unit -> 'a) -> 'a future
(** Enqueue a task. With zero workers the task runs eagerly inline in
    the caller. Exceptions raised by the task are captured (with
    backtrace) into the future and re-raised by {!await}. *)

val promise : unit -> 'a future
(** A pending future with no task behind it, completed by {!fulfil}.
    {!await} and {!poll} treat it exactly like a submitted task's. *)

val fulfil : 'a future -> ('a, exn * Printexc.raw_backtrace) result -> unit
(** Complete a {!promise} with a value or a failure and its backtrace.
    Callable from any domain, pool workers included: it takes the pool
    lock and broadcasts the condition {!await} waits on, so a promise
    fulfilled on a worker wakes an awaiter in the main domain. Raises
    [Invalid_argument] if the future is already complete. *)

val try_submit : max_pending:int -> (unit -> 'a) -> 'a future option
(** Bounded {!submit}: enqueue only while fewer than [max_pending]
    tasks are queued (waiting for a worker; running tasks don't count),
    else [None]. Check and push are atomic, so concurrent admitters
    never jointly overshoot the bound. [max_pending = 0] refuses
    everything. With zero workers the queue is always empty, so any
    positive bound admits and the task runs eagerly inline like
    {!submit}. This is the admission point for callers that must
    reply "overloaded" rather than buffer without limit — the PAS
    query server's backpressure path. *)

val queued_tasks : unit -> int
(** Tasks currently queued (not yet claimed by a worker). The queue
    depth behind {!try_submit}'s bound; exported as the server's
    [serve.queue_depth] gauge. *)

val await : 'a future -> 'a
(** Block until the task completed; return its value or re-raise its
    exception with the original backtrace. Must be called from outside
    the pool (orchestration lives in the main domain; pooled tasks are
    leaves) — awaiting from a pool worker raises [Invalid_argument]
    rather than risking deadlock. *)

val poll : 'a future -> 'a option
(** Non-blocking {!await}: [None] while the task is pending, its value
    once done, or re-raises its captured exception (with backtrace) if
    it failed. Safe from any domain, including pool workers — it takes
    the pool lock only for the instant of the state read (so a polling
    loop in another domain is guaranteed to eventually observe
    completion; a plain racy read would carry no such guarantee under
    the OCaml memory model) and never waits on a condition, so the
    worker-deadlock guard of {!await} is unnecessary. Like {!await},
    polling a failed future re-raises the same exception on every
    call, so any number of joined observers see the same outcome. *)

val busy_seconds : unit -> float
(** Cumulative seconds all workers have spent executing tasks (i.e. not
    parked), measured on the monotonic clock. Sampled by
    [Scheduler.timed] to derive the [pool.utilization] telemetry gauge:
    [delta busy / (workers * wall)]. *)

val quiesce : unit -> unit
(** Drain the queue, join every worker, and return the pool to its
    zero-worker state — a later {!ensure} respawns. Use before a
    single-domain timed measurement: on OCaml 5 every minor collection
    is a stop-the-world handshake across all live domains, so even
    parked workers tax a serial hot loop; quiescing makes the process
    genuinely single-domain, matching the world throughput baselines
    were recorded in. Cumulative {!busy_seconds} survive the cycle.
    No-op with zero workers. *)
