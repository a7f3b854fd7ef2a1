(* Deterministic execution of independent index families on the
   persistent Domain pool.

   Parallelism model: the index space [0, n) is the unit of scheduling.
   Claimer tasks dispatched onto {!Pool} pull the next index from an
   atomic counter and write the result into its slot of a pre-sized
   results array. Every caller's body for index [i] seeds its own RNG
   from [i] (a batch plan's [Run.seed_for_batch], a validation cell's
   own seed), so the contents of the results array do not depend on
   which worker ran which index or in what order — only the wall-clock
   does. All merging therefore happens after the family has finished,
   in index order, which makes [jobs:1] and [jobs:n] bit-identical.

   One primitive, [dispatch], enqueues the claimer tasks and takes a
   continuation: the claimer that finishes the family last calls it on
   its own worker with the results in index order (or the first
   failure). [map_array] passes a continuation that fulfils a [Pool]
   promise and waits on it. The adaptive runtime passes its own, which
   merges the round and dispatches the next one from the worker that
   finished the last; every experiment campaign runs that way.

   The serial path ([jobs <= 1], the library default) never touches the
   pool: [dispatch] computes an eager inline [Array.init], keeping it
   byte-identical to the pre-pool world (no queue traffic, no context
   switches) — which is what the zero-alloc and throughput gates
   measure.

   Telemetry: when handed an active [Telemetry.t], claimers emit
   batch-start/batch-end events per claimed index and one per-claimer
   busy-time event at exhaustion — all at batch boundaries, never inside
   a trial body. With the default null context the execution path is
   byte-for-byte the uninstrumented one (no clock reads, no
   allocation). *)

open Cachesec_telemetry

let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs jobs =
  match jobs with
  | None -> 1
  | Some 0 -> default_jobs ()
  | Some j when j < 0 ->
    invalid_arg "Scheduler.resolve_jobs: jobs must be non-negative (0 = auto)"
  | Some j -> j

(* --- dispatch ------------------------------------------------------------ *)

type 'a outcome = ('a array, exn * Printexc.raw_backtrace) result

(* Keep the first failure; losers of the race are dropped. *)
let record_failure failure e =
  ignore
    (Atomic.compare_and_set failure None
       (Some (e, Printexc.get_raw_backtrace ())))

(* Uninstrumented claimer body: exactly the pre-pool worker loop. *)
let plain_claimer ~slots ~next ~failure ~finish n f () =
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n && Atomic.get failure = None then begin
      (match f i with
      | v -> slots.(i) <- Some v
      | exception e -> record_failure failure e);
      loop ()
    end
  in
  loop ();
  finish ()

(* Instrumented claimer: same claiming logic, plus per-index batch
   events and a per-claimer busy-time summary. Claimer [k]'s identity is
   its slot index, not the runtime domain id, so event streams are
   comparable across runs and pool sizes. *)
let instrumented_claimer ~tm ~span ~slots ~next ~failure ~finish n f k () =
  let run_unit i =
    let t0 = Telemetry.now_s tm in
    Telemetry.batch_start tm ~span ~index:i ~total:n ~domain:k ~t_s:t0;
    let v = f i in
    Telemetry.batch_end tm ~span ~index:i ~total:n ~domain:k ~start_s:t0;
    (v, Telemetry.now_s tm -. t0)
  in
  let busy = ref 0. in
  let units = ref 0 in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n && Atomic.get failure = None then begin
      (match run_unit i with
      | v, dt ->
        slots.(i) <- Some v;
        busy := !busy +. dt;
        incr units
      | exception e -> record_failure failure e);
      loop ()
    end
  in
  loop ();
  Telemetry.domain_busy tm ~span ~domain:k ~busy_s:!busy ~units:!units;
  finish ()

(* Serial instrumented path, eager (pre-pool behaviour, unchanged). *)
let serial_instrumented ~tm ~span n f =
  let busy = ref 0. in
  let r =
    Array.init n (fun i ->
        let t0 = Telemetry.now_s tm in
        Telemetry.batch_start tm ~span ~index:i ~total:n ~domain:0 ~t_s:t0;
        let v = f i in
        Telemetry.batch_end tm ~span ~index:i ~total:n ~domain:0 ~start_s:t0;
        busy := !busy +. (Telemetry.now_s tm -. t0);
        v)
  in
  Telemetry.domain_busy tm ~span ~domain:0 ~busy_s:!busy ~units:n;
  r

let dispatch ?(tm = Telemetry.null) ?(span = Telemetry.null_span) ~jobs n f k
    =
  if n < 0 then invalid_arg "Scheduler: negative instance count";
  if jobs <= 1 || n = 0 then
    k
      (match
         if Telemetry.is_null tm then Array.init n f
         else serial_instrumented ~tm ~span n f
       with
      | r -> Ok r
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let m = min jobs n in
    let remaining = Atomic.make m in
    (* Each claimer writes its slots before its decrement of [remaining],
       and the claimer whose decrement reaches zero reads them after its
       own. That fetch-and-add is the happens-before edge for every
       slot: the continuation sees all results (and the failure cell)
       without taking a lock. *)
    let finish () =
      if Atomic.fetch_and_add remaining (-1) = 1 then
        k
          (match Atomic.get failure with
          | Some (e, bt) -> Error (e, bt)
          | None ->
            Ok
              (Array.map
                 (function
                   | Some v -> v
                   | None -> assert false (* every index was claimed and ran *))
                 slots))
    in
    for c = 0 to m - 1 do
      ignore
        (Pool.submit
           (if Telemetry.is_null tm then
              plain_claimer ~slots ~next ~failure ~finish n f
            else
              instrumented_claimer ~tm ~span ~slots ~next ~failure ~finish n f
                c))
    done
  end

(* The blocking map: dispatch into a promise and wait on it. *)
let map_array ?jobs ?tm ?span f xs =
  let jobs = resolve_jobs jobs in
  let n = Array.length xs in
  if jobs > 1 && n > 0 then Pool.ensure ~workers:jobs;
  let fut = Pool.promise () in
  dispatch ?tm ?span ~jobs n (fun i -> f xs.(i)) (Pool.fulfil fut);
  Pool.await fut

(* --- batch planning -------------------------------------------------- *)

type batch = { index : int; first : int; count : int }

let plan ~total ~batch_size =
  if total < 0 then invalid_arg "Scheduler.plan: negative total";
  if batch_size <= 0 then invalid_arg "Scheduler.plan: batch_size must be positive";
  let n = (total + batch_size - 1) / batch_size in
  Array.init n (fun i ->
      let first = i * batch_size in
      { index = i; first; count = min batch_size (total - first) })

type timed = { wall_s : float; jobs : int; span_id : int }

(* The stopwatch is monotonic (Clock, not Unix.gettimeofday): an NTP
   step mid-section must not skew the reported wall-clock — these
   numbers feed the bench regression gates.

   With an active telemetry context and a live pool, the section also
   gets pool-utilization gauges: delta busy / (workers * wall) over the
   timed window, plus the worker count. A sequence of join-barrier-bound
   campaigns shows up as low utilization; pipelined submits of the same
   campaigns push it toward 1.0 — that is the observable the e2e bench
   gate is built on. *)
let timed ?jobs ?(tm = Telemetry.null) ?(name = "timed") f =
  let j = resolve_jobs jobs in
  let sp = Telemetry.span tm name in
  let busy0 = if Telemetry.is_null tm then 0. else Pool.busy_seconds () in
  let t0 = Clock.now_s () in
  match f () with
  | v ->
    let wall_s = Clock.elapsed_s ~since:t0 in
    (if not (Telemetry.is_null tm) then begin
       let workers = Pool.workers () in
       if workers > 0 && wall_s > 0. then begin
         let busy = Pool.busy_seconds () -. busy0 in
         Telemetry.gauge tm ~span:sp "pool.workers" (float_of_int workers);
         Telemetry.gauge tm ~span:sp "pool.utilization"
           (Float.max 0. (busy /. (float_of_int workers *. wall_s)))
       end
     end);
    Telemetry.close_span tm sp;
    (v, { wall_s; jobs = j; span_id = Telemetry.span_id sp })
  | exception e ->
    Telemetry.close_span tm sp;
    raise e
