(* Persistent, process-global Domain pool.

   Why it exists: before this module, the scheduler spawned and joined
   fresh Domains for every campaign, so a full harness run
   (dozens of campaigns: 36 validation cells, figures, ablations) paid a
   spawn cost and a join-barrier idle tail per campaign — while the
   campaigns themselves ran strictly one after another, leaving cores
   idle whenever a campaign had fewer shards than workers. The pool is
   spawned once per process, lazily sized to the largest worker count
   ever requested, and every layer of the system dispatches its shard
   tasks into the one shared FIFO queue. Campaign-level pipelining
   (submit all campaigns' shards, await results in deterministic order)
   then falls out for free: workers never idle at a campaign boundary
   while another campaign has runnable shards.

   Determinism: the pool executes opaque thunks; which worker runs which
   task, and in what order tasks from different campaigns interleave, is
   scheduling — never semantics. Every task in this codebase derives its
   RNG purely from its own (seed, index), writes into its own slot, and
   all merging happens in index order once a family has finished, so
   results are bit-identical whether the queue is drained by 1 worker
   or 16 (enforced by test_runtime's pipelined-vs-sequential cases).

   Concurrency structure: one mutex guards the queue, the worker list
   and all futures' states; [work] wakes parked workers when a task is
   enqueued, [finished] is broadcast when any future completes (awaiters
   recheck their own future — completion events are per-batch, so the
   broadcast herd is cheap). Workers park in [Condition.wait] between
   campaigns; a parked Domain costs no CPU.

   Promises: a future need not have a task behind it. [promise] makes a
   pending one and [fulfil] completes it from any domain, through the
   same locked write and [finished] broadcast a task's completion uses.
   This is how a scheduler family or a whole adaptive campaign, whose
   last claimer completes it on a worker, is awaited like one task.

   Exceptions: a task that raises has its exception and backtrace
   captured into its future; [await] re-raises them in the awaiting
   domain with [Printexc.raise_with_backtrace]. First-failure semantics
   across a *family* of tasks (a campaign's shards) are layered on top
   by the scheduler's failure atomic, exactly as before the pool.

   Shutdown: the first spawn registers an [at_exit] hook that drains the
   queue, wakes every worker and joins them, so the process never exits
   with runnable work or unjoined domains. *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = { mutable state : 'a state }

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* a task was enqueued, or shutdown began *)
  finished : Condition.t;  (* some future completed *)
  queue : (unit -> unit) Queue.t;  (* completion thunks; never raise *)
  mutable domains : unit Domain.t list;
  mutable worker_ids : int list;  (* Domain ids, for deadlock detection *)
  mutable size : int;
  mutable busy_s : float array;  (* cumulative task seconds per worker *)
  mutable stop : bool;
}

(* OCaml 5 caps live domains at 128 (including the main domain and any
   the program spawns elsewhere); stay well under it. *)
let max_workers = 126

let the : t =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    queue = Queue.create ();
    domains = [];
    worker_ids = [];
    size = 0;
    busy_s = [||];
    stop = false;
  }

let rec worker_loop k =
  let p = the in
  Mutex.lock p.lock;
  while Queue.is_empty p.queue && not p.stop do
    Condition.wait p.work p.lock
  done;
  if Queue.is_empty p.queue then (* stop && empty: drained, exit *)
    Mutex.unlock p.lock
  else begin
    let task = Queue.pop p.queue in
    Mutex.unlock p.lock;
    let t0 = Cachesec_telemetry.Clock.now_s () in
    task ();
    (* tasks are wrapped: they never raise *)
    let dt = Cachesec_telemetry.Clock.elapsed_s ~since:t0 in
    Mutex.lock p.lock;
    p.busy_s.(k) <- p.busy_s.(k) +. dt;
    Mutex.unlock p.lock;
    worker_loop k
  end

let shutdown () =
  let p = the in
  Mutex.lock p.lock;
  p.stop <- true;
  Condition.broadcast p.work;
  let ds = p.domains in
  p.domains <- [];
  Mutex.unlock p.lock;
  List.iter Domain.join ds

(* Like [shutdown], but the pool comes back: workers drain the queue
   and are joined, the pool returns to its zero-worker state, and a
   later [ensure] respawns. Exists for the serial throughput benches:
   on OCaml 5 every minor collection is a stop-the-world handshake
   across ALL live domains, so even parked workers tax a single-domain
   timed loop (measurably, on small hosts) — quiescing first means the
   serial sections measure a genuinely single-domain process, exactly
   like the world their baselines were recorded in. [busy_s] is kept
   (cumulative across quiesce/respawn cycles) so utilization deltas
   sampled around a quiesce never go negative. *)
let quiesce () =
  let p = the in
  Mutex.lock p.lock;
  if p.size = 0 then Mutex.unlock p.lock
  else begin
    p.stop <- true;
    Condition.broadcast p.work;
    let ds = p.domains in
    p.domains <- [];
    p.worker_ids <- [];
    p.size <- 0;
    Mutex.unlock p.lock;
    List.iter Domain.join ds;
    Mutex.lock p.lock;
    p.stop <- false;
    Mutex.unlock p.lock
  end

let ensure ~workers =
  let target = min workers max_workers in
  let p = the in
  Mutex.lock p.lock;
  if p.stop then begin
    Mutex.unlock p.lock;
    invalid_arg "Pool.ensure: pool already shut down"
  end;
  let missing = target - p.size in
  if missing > 0 then begin
    (* [busy_s] only ever grows (it survives quiesce/respawn cycles, so
       it may already be larger than [target] after a shrink). *)
    let old = p.busy_s in
    if Array.length old < target then begin
      p.busy_s <- Array.make target 0.;
      Array.blit old 0 p.busy_s 0 (Array.length old)
    end;
    let first_spawn = p.size = 0 in
    for k = p.size to target - 1 do
      let d = Domain.spawn (fun () -> worker_loop k) in
      p.domains <- d :: p.domains;
      p.worker_ids <- (Domain.get_id d :> int) :: p.worker_ids
    done;
    p.size <- target;
    Mutex.unlock p.lock;
    (* Registered outside the lock: at_exit runs in the main domain and
       shutdown retakes the lock. *)
    if first_spawn then at_exit shutdown
  end
  else Mutex.unlock p.lock

let workers () =
  let p = the in
  Mutex.lock p.lock;
  let n = p.size in
  Mutex.unlock p.lock;
  n

let busy_seconds () =
  let p = the in
  Mutex.lock p.lock;
  let s = Array.fold_left ( +. ) 0. p.busy_s in
  Mutex.unlock p.lock;
  s

let run_task f =
  match f () with
  | v -> Done v
  | exception e -> Failed (e, Printexc.get_raw_backtrace ())

(* Complete a future under the pool lock and wake every awaiter: the
   one completion path for submitted tasks and fulfilled promises, so
   [await] and [poll] cannot tell them apart. *)
let complete p fut r =
  Mutex.lock p.lock;
  let was_pending = match fut.state with Pending -> true | _ -> false in
  if was_pending then begin
    fut.state <- r;
    Condition.broadcast p.finished
  end;
  Mutex.unlock p.lock;
  was_pending

(* Enqueue under the (held) lock and return the future. *)
let enqueue_locked p f =
  let fut = { state = Pending } in
  Queue.push (fun () -> ignore (complete p fut (run_task f))) p.queue;
  Condition.signal p.work;
  Mutex.unlock p.lock;
  fut

let submit f =
  let p = the in
  Mutex.lock p.lock;
  if p.size = 0 then begin
    (* No workers: degrade to eager inline execution in the caller.
       This keeps the serial ([jobs:1]) paths byte-identical to a world
       without the pool — no queue traffic, no context switch — which
       is what the zero-alloc and serial-throughput gates measure. *)
    Mutex.unlock p.lock;
    { state = run_task f }
  end
  else enqueue_locked p f

let promise () = { state = Pending }

let fulfil fut r =
  let r =
    match r with Ok v -> Done v | Error (e, bt) -> Failed (e, bt)
  in
  if not (complete the fut r) then
    invalid_arg "Pool.fulfil: future already completed"

let queued_tasks () =
  let p = the in
  Mutex.lock p.lock;
  let n = Queue.length p.queue in
  Mutex.unlock p.lock;
  n

(* Bounded admission for callers that must not buffer without limit
   (the PAS query server's backpressure path): the task is enqueued
   only while fewer than [max_pending] tasks are waiting for a worker.
   The bound is on the *queue*, not on running tasks — a saturated pool
   with an empty queue still admits, which is the intended semantics
   (admitting work that a worker will pick up next keeps the pool warm;
   the bound exists to cap memory and queueing delay). The length check
   and the push happen under one lock acquisition, so concurrent
   admitters cannot jointly overshoot the bound. [max_pending = 0]
   refuses everything — callers use it as a hard "serve from cache
   only" switch. With zero workers the queue is always empty, so any
   positive bound admits and the task degrades to eager inline
   execution exactly like {!submit}. *)
let try_submit ~max_pending f =
  let p = the in
  Mutex.lock p.lock;
  if Queue.length p.queue >= max_pending then begin
    Mutex.unlock p.lock;
    None
  end
  else if p.size = 0 then begin
    Mutex.unlock p.lock;
    Some { state = run_task f }
  end
  else Some (enqueue_locked p f)

(* Non-blocking completion check. [state] is written by a worker domain
   under the pool lock, so read it under the same lock: a plain
   unsynchronized read could never tear, but the OCaml memory model
   would also permit it to keep returning a stale [Pending] forever —
   a polling loop needs the acquire/release pairing the mutex provides
   to be guaranteed to eventually observe completion. The lock is
   uncontended in the common case (workers hold it only for the
   instants of dequeue and completion), so this costs nanoseconds. *)
let poll fut =
  let p = the in
  Mutex.lock p.lock;
  let s = fut.state in
  Mutex.unlock p.lock;
  match s with
  | Pending -> None
  | Done v -> Some v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt

let await fut =
  match fut.state with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending ->
    let p = the in
    Mutex.lock p.lock;
    (* Awaiting from a pool worker would park the worker on a condition
       the remaining workers may never signal (every worker could end up
       waiting on work only the pool itself can run): refuse loudly
       instead of deadlocking. Orchestration always lives in the main
       domain; pooled tasks are leaves. *)
    if List.mem (Domain.self () :> int) p.worker_ids then begin
      Mutex.unlock p.lock;
      invalid_arg "Pool.await: cannot await from inside a pool worker"
    end;
    let rec wait () =
      match fut.state with
      | Pending ->
        Condition.wait p.finished p.lock;
        wait ()
      | s -> s
    in
    let s = wait () in
    Mutex.unlock p.lock;
    (match s with
    | Done v -> v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending -> assert false)
