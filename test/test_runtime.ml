(* The trial runtime's contract: jobs changes wall-clock, never results.

   Serial (jobs:1) and Domain-parallel (jobs:4, more workers than this
   machine may have cores) executions of the same index family, driver
   campaign, or validation cell must be bit-identical. *)

open Cachesec_stats
open Cachesec_runtime
open Cachesec_cache
open Cachesec_experiments

(* --- Scheduler ------------------------------------------------------- *)

let test_resolve_jobs () =
  Alcotest.(check int) "absent = serial" 1 (Scheduler.resolve_jobs None);
  Alcotest.(check int) "explicit" 3 (Scheduler.resolve_jobs (Some 3));
  Alcotest.(check int)
    "auto = recommended" (Scheduler.default_jobs ())
    (Scheduler.resolve_jobs (Some 0));
  Alcotest.check_raises "negative"
    (Invalid_argument
       "Scheduler.resolve_jobs: jobs must be non-negative (0 = auto)")
    (fun () -> ignore (Scheduler.resolve_jobs (Some (-1))))

let test_scheduler_serial_parallel_identical () =
  (* A body with real RNG consumption, seeded from its element alone. *)
  let body i =
    let rng = Rng.create ~seed:(Rng.derive_seed 1234 i) in
    let acc = ref 0 in
    for _ = 1 to 100 do
      acc := !acc + Rng.int rng 1000
    done;
    !acc
  in
  let xs = Array.init 37 Fun.id in
  let serial = Scheduler.map_array ~jobs:1 body xs in
  let parallel = Scheduler.map_array ~jobs:4 body xs in
  let auto = Scheduler.map_array ~jobs:0 body xs in
  Alcotest.(check (array int)) "jobs:1 = jobs:4" serial parallel;
  Alcotest.(check (array int)) "jobs:1 = jobs:auto" serial auto

let test_scheduler_map_array () =
  let xs = Array.init 50 (fun i -> i) in
  let f i = i * i in
  Alcotest.(check (array int))
    "map_array order-preserving" (Array.map f xs)
    (Scheduler.map_array ~jobs:4 f xs)

let test_scheduler_exception_propagates () =
  Alcotest.check_raises "worker exception re-raised" (Failure "boom")
    (fun () ->
      ignore
        (Scheduler.map_array ~jobs:4 (fun () -> failwith "boom") (Array.make 8 ())))

let test_plan () =
  let plan = Scheduler.plan ~total:10 ~batch_size:4 in
  Alcotest.(check int) "batches" 3 (Array.length plan);
  Array.iteri
    (fun i (b : Scheduler.batch) ->
      Alcotest.(check int) "index" i b.Scheduler.index)
    plan;
  let covered =
    Array.fold_left (fun acc (b : Scheduler.batch) -> acc + b.Scheduler.count) 0 plan
  in
  Alcotest.(check int) "covers total" 10 covered;
  Alcotest.(check int) "last first" 8 plan.(2).Scheduler.first;
  Alcotest.(check int) "last count" 2 plan.(2).Scheduler.count

(* --- Pool ------------------------------------------------------------ *)

let test_pool_submit_await () =
  Pool.ensure ~workers:4;
  Alcotest.(check bool) "pool is live" true (Pool.workers () >= 4);
  (* Values come back, in whatever order we await them. *)
  let futs = List.init 20 (fun i -> Pool.submit (fun () -> i * i)) in
  List.iteri
    (fun i f -> Alcotest.(check int) "future value" (i * i) (Pool.await f))
    futs;
  (* Concurrent submits from a pooled task: tasks may enqueue more
     tasks (they just must not await them) — the main domain joins
     everything. *)
  let inner = Atomic.make [] in
  let outer =
    List.init 8 (fun i ->
        Pool.submit (fun () ->
            let f = Pool.submit (fun () -> i + 100) in
            let rec push () =
              let old = Atomic.get inner in
              if not (Atomic.compare_and_set inner old (f :: old)) then push ()
            in
            push ()))
  in
  List.iter Pool.await outer;
  let inner_vals =
    List.sort compare (List.map Pool.await (Atomic.get inner))
  in
  Alcotest.(check (list int))
    "nested submits all ran" (List.init 8 (fun i -> i + 100)) inner_vals

let test_pool_exception_propagates () =
  Pool.ensure ~workers:2;
  let f = Pool.submit (fun () -> failwith "pool-boom") in
  Alcotest.check_raises "task exception re-raised at await"
    (Failure "pool-boom") (fun () -> Pool.await f);
  (* A failed future stays failed: awaiting again re-raises again. *)
  Alcotest.check_raises "failure is sticky" (Failure "pool-boom") (fun () ->
      Pool.await f);
  (* And the pool survives: the worker that ran the failing task keeps
     serving. *)
  Alcotest.(check int) "pool still serves" 7
    (Pool.await (Pool.submit (fun () -> 7)))

let test_pool_await_inside_worker_rejected () =
  Pool.ensure ~workers:2;
  (* [blocker] stays Pending until [release] is set, so the worker
     running [f] hits the real Pending path of [Pool.await] (a Done
     future short-circuits before the in-worker check). *)
  let release = Atomic.make false in
  let blocker =
    Pool.submit (fun () ->
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  let f = Pool.submit (fun () -> Pool.await blocker) in
  Alcotest.check_raises "await from a worker refuses"
    (Invalid_argument "Pool.await: cannot await from inside a pool worker")
    (fun () -> Pool.await f);
  Atomic.set release true;
  Pool.await blocker

let test_pool_quiesce_respawns () =
  (* Quiesce joins the workers (serial benches need a genuinely
     single-domain process) but is not a shutdown: eager inline
     submission keeps working at zero workers, a later [ensure]
     respawns, and cumulative busy-seconds never move backwards. *)
  Pool.ensure ~workers:2;
  Alcotest.(check int) "warm task" 6 (Pool.await (Pool.submit (fun () -> 6)));
  let busy_before = Pool.busy_seconds () in
  Pool.quiesce ();
  Alcotest.(check int) "no workers after quiesce" 0 (Pool.workers ());
  Alcotest.(check int) "eager inline at zero workers" 9
    (Pool.await (Pool.submit (fun () -> 9)));
  Alcotest.(check bool)
    "busy seconds survive the cycle" true
    (Pool.busy_seconds () >= busy_before);
  Pool.ensure ~workers:2;
  Alcotest.(check bool) "respawned" true (Pool.workers () >= 2);
  Alcotest.(check int) "pooled task after respawn" 11
    (Pool.await (Pool.submit (fun () -> 11)))

let test_pool_try_submit_bound () =
  (* Deterministic backpressure: park every worker on a gate so tasks
     queue instead of being claimed, then watch the bound refuse
     exactly at [max_pending]. *)
  Pool.ensure ~workers:2;
  let w = Pool.workers () in
  let release = Atomic.make false in
  let started = Atomic.make 0 in
  let gates =
    List.init w (fun _ ->
        Pool.submit (fun () ->
            Atomic.incr started;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  (* Wait until every worker is provably inside a gate task: the queue
     is now empty and nothing else will be claimed until release. *)
  while Atomic.get started < w do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "queue empty while workers busy" 0 (Pool.queued_tasks ());
  let a = Pool.try_submit ~max_pending:2 (fun () -> 1) in
  let b = Pool.try_submit ~max_pending:2 (fun () -> 2) in
  Alcotest.(check bool) "under the bound admits" true
    (a <> None && b <> None);
  Alcotest.(check int) "two queued" 2 (Pool.queued_tasks ());
  Alcotest.(check bool) "at the bound refuses" true
    (Pool.try_submit ~max_pending:2 (fun () -> 3) = None);
  Alcotest.(check bool) "zero bound refuses even when empty" true
    (Pool.try_submit ~max_pending:0 (fun () -> 4) = None);
  Atomic.set release true;
  List.iter Pool.await gates;
  (* Admitted-then-queued work completes normally after release. *)
  (match (a, b) with
  | Some fa, Some fb ->
    Alcotest.(check int) "first admitted" 1 (Pool.await fa);
    Alcotest.(check int) "second admitted" 2 (Pool.await fb)
  | _ -> Alcotest.fail "admissions lost");
  (* With zero workers the queue cannot exist: any positive bound
     admits and runs eagerly inline. *)
  Pool.quiesce ();
  (match Pool.try_submit ~max_pending:1 (fun () -> 5) with
  | Some f -> Alcotest.(check int) "inline at zero workers" 5 (Pool.await f)
  | None -> Alcotest.fail "positive bound refused at zero workers");
  Pool.ensure ~workers:2

let test_pool_poll () =
  Pool.ensure ~workers:2;
  (* Pending -> None; Done -> Some; repeated polls agree. *)
  let release = Atomic.make false in
  let f =
    Pool.submit (fun () ->
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        42)
  in
  Alcotest.(check (option int)) "pending polls None" None (Pool.poll f);
  Atomic.set release true;
  Alcotest.(check int) "await" 42 (Pool.await f);
  Alcotest.(check (option int)) "done polls Some" (Some 42) (Pool.poll f);
  Alcotest.(check (option int)) "poll is idempotent" (Some 42) (Pool.poll f);
  (* Every observer of a failed future sees the same exception, on
     every poll — the dedup server joins many waiters onto one future
     and reports one shared outcome. *)
  let g = Pool.submit (fun () -> failwith "poll-boom") in
  (try ignore (Pool.await g) with Failure _ -> ());
  List.iter
    (fun observer ->
      Alcotest.check_raises
        (Printf.sprintf "observer %d sees the failure" observer)
        (Failure "poll-boom")
        (fun () -> ignore (Pool.poll g)))
    [ 1; 2; 3 ]

let test_pool_promise () =
  Pool.ensure ~workers:2;
  (* A promise fulfilled on a worker wakes an await in the main
     domain, exactly like a submitted task's future. *)
  let p = Pool.promise () in
  Alcotest.(check (option int)) "unfulfilled polls None" None (Pool.poll p);
  let _ : unit Pool.future = Pool.submit (fun () -> Pool.fulfil p (Ok 17)) in
  Alcotest.(check int) "await sees the worker's value" 17 (Pool.await p);
  Alcotest.(check (option int)) "then polls Some" (Some 17) (Pool.poll p);
  Alcotest.check_raises "second fulfil rejected"
    (Invalid_argument "Pool.fulfil: future already completed") (fun () ->
      Pool.fulfil p (Ok 18));
  let q = Pool.promise () in
  let bt = Printexc.get_callstack 1 in
  Pool.fulfil q (Error (Failure "promise-boom", bt));
  Alcotest.check_raises "a failed promise re-raises" (Failure "promise-boom")
    (fun () -> ignore (Pool.await q))

let test_driver_pending_combinators () =
  let calls = ref 0 in
  let p =
    Driver.map_pending
      (fun x ->
        incr calls;
        x * 2)
      (Driver.pending_of_thunk (fun () -> 21))
  in
  Alcotest.(check int) "map_pending" 42 (Driver.await p);
  Alcotest.(check int) "await memoizes" 42 (Driver.await p);
  Alcotest.(check int) "join ran once" 1 !calls

(* --- Driver: jobs-invariance of real experiments --------------------- *)

let spec = Spec.paper_sa

let test_driver_flush_reload_invariant () =
  let cfg =
    { Cachesec_attacks.Flush_reload.default_config with
      Cachesec_attacks.Flush_reload.trials = 600 (* spans 3 batches of 256 *)
    }
  in
  let r1 = Driver.await (Driver.submit_flush_reload (Run.make ~jobs:1 ~seed:42 ()) spec cfg) in
  let r4 = Driver.await (Driver.submit_flush_reload (Run.make ~jobs:4 ~seed:42 ()) spec cfg) in
  Alcotest.(check bool)
    "same verdict" r1.Cachesec_attacks.Flush_reload.nibble_recovered
    r4.Cachesec_attacks.Flush_reload.nibble_recovered;
  Alcotest.(check int)
    "same winner" r1.Cachesec_attacks.Flush_reload.best_candidate
    r4.Cachesec_attacks.Flush_reload.best_candidate;
  Alcotest.(check (float 0.))
    "same separation" r1.Cachesec_attacks.Flush_reload.separation
    r4.Cachesec_attacks.Flush_reload.separation

let test_driver_cleaning_game_invariant () =
  let p jobs =
    Driver.await
      (Driver.submit_cleaning_game (Run.make ~jobs ~seed:7 ()) spec
         ~accesses:16 ~samples:600)
  in
  let p1 = p 1 and p4 = p 4 in
  Alcotest.(check (float 0.)) "bit-identical probability" p1 p4

let cell_testable =
  let pp ppf (c : Validation.cell) =
    Format.fprintf ppf "{%s %s pas=%g pred=%b rec=%b sep=%g}" c.Validation.arch
      (Cachesec_analysis.Attack_type.name c.Validation.attack)
      c.Validation.pas c.Validation.predicted_leak c.Validation.recovered
      c.Validation.separation
  in
  (* [compare] rather than [=]: a cell with zero observed variance has
     separation = nan, and nan must compare equal to itself here. *)
  Alcotest.testable pp (fun a b -> compare a b = 0)

let test_validation_cells_jobs_invariant () =
  (* Two full cells of the validation matrix, one per attack family that
     exercises a different run_span, at Quick scale. *)
  let check_cell spec attack =
    let cell jobs =
      Validation.cell (Run.quick (Run.make ~jobs ~seed:42 ())) spec attack
    in
    let c1 = cell 1 and c4 = cell 4 in
    Alcotest.check cell_testable
      (Spec.name spec ^ " cell identical across jobs")
      c1 c4
  in
  check_cell Spec.paper_sa Cachesec_analysis.Attack_type.Flush_and_reload;
  check_cell Spec.paper_sa Cachesec_analysis.Attack_type.Evict_and_time;
  check_cell Spec.paper_newcache Cachesec_analysis.Attack_type.Prime_and_probe;
  check_cell Spec.paper_rf Cachesec_analysis.Attack_type.Cache_collision

let test_validation_matrix_pipelined_identical () =
  (* The tentpole contract, end to end: the full 36-cell validation
     matrix is bit-identical between strictly sequential campaign
     execution and pipelined submits, serial and parallel. Sequential
     jobs:4 is the reference; pipelined jobs:4 reorders execution on the
     pool queue, pipelined jobs:1 degrades to eager submits — all three
     must agree cell for cell. *)
  let matrix ~pipeline ~jobs =
    Validation.cells ~pipeline (Run.quick (Run.make ~seed:42 ~jobs ()))
  in
  let reference = matrix ~pipeline:false ~jobs:4 in
  Alcotest.(check int) "36 cells" 36 (List.length reference);
  Alcotest.(check (list cell_testable))
    "pipelined jobs:4 = sequential jobs:4" reference
    (matrix ~pipeline:true ~jobs:4);
  Alcotest.(check (list cell_testable))
    "pipelined jobs:1 = sequential jobs:4" reference
    (matrix ~pipeline:true ~jobs:1)

let test_adaptive_matrix_pipelined_identical () =
  (* The adaptive analogue of the pipelined-identity contract: with
     run-to-confidence stopping engaged, the full matrix — including
     each cell's executed trial count and achieved half-width — must be
     bit-identical across jobs:1 / jobs:4 and sequential / pipelined
     submission. Stop decisions happen only at seed-determined round
     boundaries on batch-order merges, so adaptivity adds no
     nondeterminism. *)
  let adaptive = { Validation.confidence = 0.95; ci_width = 0.05 } in
  let matrix ~pipeline ~jobs =
    Validation.cells ~pipeline ~adaptive
      (Run.quick (Run.make ~seed:42 ~jobs ()))
  in
  let reference = matrix ~pipeline:false ~jobs:4 in
  Alcotest.(check int) "36 cells" 36 (List.length reference);
  (* Early stopping genuinely engaged: the matrix ran fewer trials than
     its caps (the 0.05 target is loose enough for the easy cells). *)
  Alcotest.(check bool) "some trials saved" true
    (Validation.total_trials reference < Validation.total_caps reference);
  Alcotest.(check (list cell_testable))
    "adaptive pipelined jobs:4 = sequential jobs:4" reference
    (matrix ~pipeline:true ~jobs:4);
  Alcotest.(check (list cell_testable))
    "adaptive pipelined jobs:1 = sequential jobs:4" reference
    (matrix ~pipeline:true ~jobs:1)

let test_learning_curve_jobs_invariant () =
  let curve jobs =
    Learning_curves.curve ~seeds:3 ~grid:[ 50; 100 ]
      (Run.make ~jobs ~seed:61 ()) Spec.paper_sa
  in
  let c1 = curve 1 and c4 = curve 4 in
  Alcotest.(check bool) "identical curves" true (c1 = c4)

let test_timed_reports_jobs () =
  let x, t = Scheduler.timed ~jobs:2 (fun () -> 40 + 2) in
  Alcotest.(check int) "value" 42 x;
  Alcotest.(check int) "resolved jobs" 2 t.Scheduler.jobs;
  Alcotest.(check bool) "non-negative wall" true (t.Scheduler.wall_s >= 0.);
  (* Under the default null context the section gets no span. *)
  Alcotest.(check int) "null context: span id 0" 0 t.Scheduler.span_id;
  (* With an active context, timed brackets the section in a span and
     reports its id — the cross-reference key BENCH_cache.json embeds. *)
  let open Cachesec_telemetry in
  let sink, events = Sink.memory () in
  let tm = Telemetry.make ~sink () in
  let _, t' = Scheduler.timed ~tm ~name:"bench-section" (fun () -> ()) in
  Telemetry.close tm;
  Alcotest.(check bool) "active context: span id > 0" true
    (t'.Scheduler.span_id > 0);
  let names =
    List.filter_map
      (function
        | Event.Span_start { id; name; _ } when id = t'.Scheduler.span_id ->
          Some name
        | _ -> None)
      (events ())
  in
  Alcotest.(check (list string)) "span carries the section name"
    [ "bench-section" ] names

(* --- Run.ctx contracts ------------------------------------------------- *)

let test_seed_for_batch_contract () =
  (* Batch 0 must reuse the root seed verbatim; later batches come from
     the pure hash. *)
  List.iter
    (fun seed ->
      Alcotest.(check int) "batch 0 is the root seed" seed
        (Run.seed_for_batch ~seed 0);
      List.iter
        (fun i ->
          Alcotest.(check int) "later batches use derive_seed"
            (Rng.derive_seed seed i)
            (Run.seed_for_batch ~seed i))
        [ 1; 2; 17; 4096 ])
    [ 0; 7; 42; 0x5EED ];
  let ctx = Run.make ~seed:42 () in
  Alcotest.(check int) "batch_seed reads ctx.seed"
    (Run.seed_for_batch ~seed:42 3) (Run.batch_seed ctx 3)

let test_telemetry_observer_only () =
  (* An active telemetry context cannot move results. *)
  let cfg =
    { Cachesec_attacks.Flush_reload.default_config with
      Cachesec_attacks.Flush_reload.trials = 600
    }
  in
  let ctx = Run.make ~jobs:4 ~seed:42 () in
  let plain = Driver.await (Driver.submit_flush_reload ctx spec cfg) in
  let open Cachesec_telemetry in
  let sink, _ = Sink.memory () in
  let tm = Telemetry.make ~sink () in
  let observed =
    Driver.await
      (Driver.submit_flush_reload (Run.with_telemetry tm ctx) spec cfg)
  in
  Telemetry.close tm;
  Alcotest.(check bool) "telemetry does not perturb results" true
    (compare plain observed = 0)

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "submit / await" `Quick test_pool_submit_await;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "await inside worker rejected" `Quick
            test_pool_await_inside_worker_rejected;
          Alcotest.test_case "quiesce / respawn" `Quick
            test_pool_quiesce_respawns;
          Alcotest.test_case "try_submit bound" `Quick
            test_pool_try_submit_bound;
          Alcotest.test_case "poll" `Quick test_pool_poll;
          Alcotest.test_case "promise / fulfil" `Quick test_pool_promise;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
          Alcotest.test_case "serial = parallel" `Quick
            test_scheduler_serial_parallel_identical;
          Alcotest.test_case "map_array" `Quick test_scheduler_map_array;
          Alcotest.test_case "exception propagates" `Quick
            test_scheduler_exception_propagates;
          Alcotest.test_case "plan" `Quick test_plan;
          Alcotest.test_case "timed" `Quick test_timed_reports_jobs;
        ] );
      ( "driver",
        [
          Alcotest.test_case "flush-reload jobs-invariant" `Quick
            test_driver_flush_reload_invariant;
          Alcotest.test_case "cleaning game jobs-invariant" `Quick
            test_driver_cleaning_game_invariant;
          Alcotest.test_case "validation cells jobs-invariant" `Quick
            test_validation_cells_jobs_invariant;
          Alcotest.test_case "validation matrix pipelined-identical" `Slow
            test_validation_matrix_pipelined_identical;
          Alcotest.test_case "adaptive matrix pipelined-identical" `Slow
            test_adaptive_matrix_pipelined_identical;
          Alcotest.test_case "learning curve jobs-invariant" `Quick
            test_learning_curve_jobs_invariant;
          Alcotest.test_case "pending combinators" `Quick
            test_driver_pending_combinators;
        ] );
      ( "ctx migration",
        [
          Alcotest.test_case "seed_for_batch contract" `Quick
            test_seed_for_batch_contract;
          Alcotest.test_case "telemetry is observer-only" `Quick
            test_telemetry_observer_only;
        ] );
    ]
