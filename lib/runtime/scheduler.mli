(** Deterministic serial / Domain-parallel execution of index families.

    The scheduler's contract: for a body [f] whose result for index [i]
    depends on [i] alone, [map_array ~jobs:j f xs] yields the same
    array for every [j] — parallelism changes wall-clock only. The
    callers keep [f] that way by seeding each index's RNG from the index
    (a batch plan's {!Run.seed_for_batch}, a validation cell's own
    seed); results are written into per-index slots, and any reduction
    runs after the family has finished, in index order.

    Execution is dispatched onto the persistent process-global {!Pool}:
    parallel families submit index-claiming tasks into the one shared
    queue instead of spawning Domains per call. There is one primitive,
    {!dispatch}: the claimer that finishes a family last calls a
    continuation on its own worker. {!map_array} feeds a {!Pool} promise
    from it and waits; the adaptive runtime ({!Adaptive}), which runs
    every experiment campaign, chains its next round from it, so no
    round waits for the main domain and campaigns submitted together
    share the queue.

    The serial path ([jobs <= 1], the default) never touches the pool:
    the family runs as an eager inline [Array.init], byte-identical to
    the pre-pool world.

    Observability: every execution entry point accepts a telemetry
    context [?tm] and a parent [?span]. With an active context the
    scheduler emits [Batch_start]/[Batch_end] per claimed index and one
    [Domain_busy] utilisation event per worker at join — all at batch
    boundaries, never inside a trial body. With the default
    {!Cachesec_telemetry.Telemetry.null} the execution path is exactly
    the uninstrumented one (no clock reads, no allocation). *)

open Cachesec_telemetry

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val resolve_jobs : int option -> int
(** [None] is serial ([1]); [Some 0] is auto ({!default_jobs}); [Some j]
    with [j > 0] is exactly [j] workers. Raises [Invalid_argument] on
    negative [j]. *)

type 'a outcome = ('a array, exn * Printexc.raw_backtrace) result
(** A finished family: its results in index order, or its first failure
    with the backtrace. *)

val dispatch :
  ?tm:Telemetry.t -> ?span:Telemetry.span -> jobs:int -> int ->
  (int -> 'a) -> ('a outcome -> unit) -> unit
(** The one dispatch primitive: run the index space [0, n) and hand the
    {!outcome} to the continuation. With [jobs > 1] it enqueues
    [min jobs n] index-claiming tasks and returns at once; the claimer
    that finishes last calls the continuation on its own worker. After
    a failure no claimer starts another index. With [jobs <= 1] (or
    [n = 0]) it computes inline and calls the continuation before
    returning. It never calls [Pool.ensure]: the submitting domain must
    have grown the pool to [jobs] workers, so a continuation on a worker
    may dispatch the next family but only ever enqueues. The
    continuation must not raise: on a worker there is no one to
    re-raise to. *)

val map_array :
  ?jobs:int -> ?tm:Telemetry.t -> ?span:Telemetry.span -> ('a -> 'b) ->
  'a array -> 'b array
(** Order-preserving parallel map for heterogeneous work units (e.g. the
    36 validation-matrix cells). The caller is responsible for making
    [f] independent of execution order — in this library every such [f]
    seeds its own RNG from the element. *)

type batch = { index : int; first : int; count : int }

val plan : total:int -> batch_size:int -> batch array
(** Split [total] trial repetitions into contiguous batches of at most
    [batch_size]. The plan depends only on [(total, batch_size)] — never
    on [jobs] — which is what keeps batched merges identical across
    worker counts. *)

type timed = { wall_s : float; jobs : int; span_id : int }
(** [span_id] is [0] under a null context; otherwise the id of the span
    wrapping the timed section, for cross-referencing wall-clock
    sections (e.g. [BENCH_cache.json]) against the telemetry JSON. *)

val timed :
  ?jobs:int -> ?tm:Telemetry.t -> ?name:string -> (unit -> 'a) ->
  'a * timed
(** Wall-clock a section on the monotonic clock ({!Clock}), recording
    the resolved worker count. With an active [tm], also brackets the
    section in a span named [name] (default ["timed"]), reports its id,
    and — when the pool is live — emits [pool.workers] and
    [pool.utilization] gauges for the section, where utilization is
    [delta busy_seconds / (workers * wall_s)] over the timed window. *)
