(* Sequential stopping + adaptive round scheduling.

   The stats side (Sequential) is pure decision logic: quantile pins,
   interval behavior at the edges, the target smart constructor, and
   the decide semantics (min/max trials, the half_width = 0 measurement
   mode). The runtime side (Adaptive) is checked structurally — every
   round plan is a partition of the fixed Scheduler plan with
   geometrically growing boundaries — and behaviorally: early stops
   happen at round boundaries only, and an adaptive run is bit-identical
   across jobs settings. *)

open Cachesec_stats
open Cachesec_runtime

(* --- Sequential: inverse normal CDF ---------------------------------- *)

let test_normal_quantile () =
  (* Textbook pins, well inside Acklam's 1.2e-9 relative error. *)
  Alcotest.(check (float 1e-6)) "median" 0. (Sequential.normal_quantile 0.5);
  Alcotest.(check (float 1e-6)) "97.5%" 1.959964
    (Sequential.normal_quantile 0.975);
  Alcotest.(check (float 1e-6)) "2.5%" (-1.959964)
    (Sequential.normal_quantile 0.025);
  Alcotest.(check (float 1e-5)) "99.5%" 2.575829
    (Sequential.normal_quantile 0.995);
  (* Deep tail exercises the p < p_low rational branch. *)
  Alcotest.(check (float 1e-5)) "0.1% tail" (-3.090232)
    (Sequential.normal_quantile 0.001);
  (* Symmetry across the two tail branches. *)
  Alcotest.(check (float 1e-9)) "tails are symmetric"
    (Sequential.normal_quantile 0.9999)
    (-.Sequential.normal_quantile 0.0001);
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p=%g rejected" p)
        (Invalid_argument "Sequential.normal_quantile: p must be in (0,1)")
        (fun () -> ignore (Sequential.normal_quantile p)))
    [ 0.; 1.; -0.5; 1.5; Float.nan ]

let test_z_of_confidence () =
  Alcotest.(check (float 1e-6)) "95%" 1.959964
    (Sequential.z_of_confidence 0.95);
  Alcotest.(check (float 1e-6)) "99%" 2.575829
    (Sequential.z_of_confidence 0.99);
  Alcotest.check_raises "confidence 1 rejected"
    (Invalid_argument "Sequential.z_of_confidence: confidence must be in (0,1)")
    (fun () -> ignore (Sequential.z_of_confidence 1.))

(* --- Sequential: intervals ------------------------------------------- *)

let test_wilson () =
  (* Wilson stays strictly inside (0,1) at the degenerate observed
     rates where Wald collapses to zero width. *)
  let lo0, hi0 = Sequential.wilson ~successes:0. ~trials:50 ~confidence:0.95 in
  Alcotest.(check (float 0.)) "all-miss lower bound" 0. lo0;
  Alcotest.(check bool) "all-miss upper bound positive" true (hi0 > 0.);
  let lo1, hi1 = Sequential.wilson ~successes:50. ~trials:50 ~confidence:0.95 in
  Alcotest.(check (float 1e-12)) "all-hit upper bound" 1. hi1;
  Alcotest.(check bool) "all-hit lower bound below 1" true (lo1 < 1.);
  (* Interval brackets the observed rate and narrows with n. *)
  let lo, hi = Sequential.wilson ~successes:30. ~trials:100 ~confidence:0.95 in
  Alcotest.(check bool) "brackets p-hat" true (lo < 0.3 && 0.3 < hi);
  let w n =
    Sequential.wilson_half_width
      ~successes:(0.3 *. float_of_int n)
      ~trials:n ~confidence:0.95
  in
  Alcotest.(check bool) "narrows with trials" true (w 10000 < w 100);
  Alcotest.check_raises "zero trials rejected"
    (Invalid_argument "Sequential.wilson: trials must be positive") (fun () ->
      ignore (Sequential.wilson ~successes:0. ~trials:0 ~confidence:0.95));
  Alcotest.check_raises "successes > trials rejected"
    (Invalid_argument "Sequential.wilson: successes must be in [0, trials]")
    (fun () ->
      ignore (Sequential.wilson ~successes:11. ~trials:10 ~confidence:0.95))

let summary_of xs =
  let s = Summary.create () in
  List.iter (Summary.add s) xs;
  s

let test_mean_half_width () =
  Alcotest.(check (float 0.)) "no observations" infinity
    (Sequential.mean_half_width (Summary.create ()) ~confidence:0.95);
  Alcotest.(check (float 0.)) "one observation" infinity
    (Sequential.mean_half_width (summary_of [ 5. ]) ~confidence:0.95);
  (* z * s / sqrt n against a hand computation: {2,4} has unbiased
     sample std sqrt(2). *)
  Alcotest.(check (float 1e-6)) "two observations"
    (1.959964 *. sqrt 2. /. sqrt 2.)
    (Sequential.mean_half_width (summary_of [ 2.; 4. ]) ~confidence:0.95)

let test_achieved () =
  let achieved = Sequential.achieved ~confidence:0.95 in
  Alcotest.(check (float 0.)) "proportion with no trials" infinity
    (achieved (Sequential.Proportion { successes = 0.; trials = 0 }));
  Alcotest.(check (float 1e-9)) "proportion = wilson half-width"
    (Sequential.wilson_half_width ~successes:30. ~trials:100 ~confidence:0.95)
    (achieved (Sequential.Proportion { successes = 30.; trials = 100 }));
  (* Mean_rel is relative to |mean|. *)
  let s = summary_of [ 90.; 110.; 95.; 105. ] in
  Alcotest.(check (float 1e-9)) "mean_rel = hw / |mean|"
    (Sequential.mean_half_width s ~confidence:0.95 /. Summary.mean s)
    (achieved (Sequential.Mean_rel s));
  (* Degenerate-constant stream: the estimate cannot move, honest
     half-width 0 — even when the constant is 0 itself. *)
  Alcotest.(check (float 0.)) "constant stream" 0.
    (achieved (Sequential.Mean_rel (summary_of [ 7.; 7.; 7. ])));
  Alcotest.(check (float 0.)) "constant-zero stream" 0.
    (achieved (Sequential.Mean_rel (summary_of [ 0.; 0.; 0. ])));
  (* Zero mean WITH spread: relative precision undefined, run to cap. *)
  Alcotest.(check (float 0.)) "zero mean with spread" infinity
    (achieved (Sequential.Mean_rel (summary_of [ -1.; 1. ])));
  Alcotest.(check (float 0.)) "below two observations" infinity
    (achieved (Sequential.Mean_rel (summary_of [ 3. ])))

(* --- Sequential: target + decide ------------------------------------- *)

let test_target_validation () =
  let t = Sequential.target ~half_width:0.05 ~max_trials:1000 () in
  Alcotest.(check (float 0.)) "default confidence" 0.95
    t.Sequential.confidence;
  Alcotest.(check int) "default min_trials" 100 t.Sequential.min_trials;
  List.iter
    (fun (label, msg, thunk) ->
      Alcotest.check_raises label (Invalid_argument msg) (fun () ->
          ignore (thunk ())))
    [
      ( "bad confidence",
        "Sequential.target: confidence must be in (0,1)",
        fun () ->
          Sequential.target ~confidence:1. ~half_width:0.05 ~max_trials:1000 ()
      );
      ( "negative half_width",
        "Sequential.target: half_width must be non-negative",
        fun () -> Sequential.target ~half_width:(-0.1) ~max_trials:1000 () );
      ( "zero min_trials",
        "Sequential.target: min_trials must be positive",
        fun () ->
          Sequential.target ~min_trials:0 ~half_width:0.05 ~max_trials:1000 ()
      );
      ( "cap below floor",
        "Sequential.target: max_trials must be >= min_trials",
        fun () ->
          Sequential.target ~min_trials:100 ~half_width:0.05 ~max_trials:50 ()
      );
    ]

let test_decide () =
  let t =
    Sequential.target ~min_trials:100 ~half_width:0.05 ~max_trials:1000 ()
  in
  (* Tight observation: wilson half-width at 500/1000 trials is ~0.03,
     well under the 0.05 target. *)
  let tight trials =
    Sequential.Proportion { successes = 0.5 *. float_of_int trials; trials }
  in
  Alcotest.(check bool) "below min_trials never stops" true
    (Sequential.decide t ~trials:50 (tight 50) = Sequential.Continue);
  Alcotest.(check bool) "tight interval past the floor stops" true
    (Sequential.decide t ~trials:500 (tight 500) = Sequential.Stop);
  Alcotest.(check bool) "wide interval continues" true
    (Sequential.decide t ~trials:150
       (Sequential.Proportion { successes = 75.; trials = 150 })
    = Sequential.Continue);
  Alcotest.(check bool) "cap always stops" true
    (Sequential.decide t ~trials:1000
       (Sequential.Proportion { successes = 500.; trials = 1000 })
    = Sequential.Stop);
  (* Measurement mode: half_width = 0 never stops early, not even at an
     achieved width of exactly 0 (degenerate-constant stream). *)
  let m = Sequential.target ~half_width:0. ~max_trials:1000 () in
  Alcotest.(check bool) "measurement mode ignores perfect precision" true
    (Sequential.decide m ~trials:500
       (Sequential.Mean_rel (summary_of [ 7.; 7.; 7. ]))
    = Sequential.Continue);
  Alcotest.(check bool) "measurement mode still stops at cap" true
    (Sequential.decide m ~trials:1000
       (Sequential.Mean_rel (summary_of [ 7.; 7.; 7. ]))
    = Sequential.Stop)

(* --- Adaptive: round plans ------------------------------------------- *)

(* Structural invariants every plan must satisfy: the batches ARE the
   fixed Scheduler plan (same indices, firsts, counts — adaptivity must
   never change what any batch computes), and the boundaries strictly
   increase to exactly the batch count. *)
let check_plan_invariants ~total ~batch_size (p : Adaptive.plan) =
  let fixed = Scheduler.plan ~total ~batch_size in
  Alcotest.(check int)
    (Printf.sprintf "total=%d bs=%d: batches = fixed plan" total batch_size)
    (Array.length fixed)
    (Array.length p.Adaptive.batches);
  Array.iteri
    (fun i (b : Scheduler.batch) ->
      let f = fixed.(i) in
      Alcotest.(check bool) "batch matches fixed plan" true
        (b.Scheduler.index = f.Scheduler.index
        && b.Scheduler.first = f.Scheduler.first
        && b.Scheduler.count = f.Scheduler.count))
    p.Adaptive.batches;
  let bounds = p.Adaptive.boundaries in
  let n = Array.length bounds in
  Alcotest.(check bool) "at least one round when non-empty" true
    (Array.length fixed = 0 || n > 0);
  Array.iteri
    (fun r b ->
      Alcotest.(check bool) "boundaries strictly increase" true
        (b > if r = 0 then 0 else bounds.(r - 1)))
    bounds;
  if n > 0 then
    Alcotest.(check int) "last round covers every batch"
      (Array.length fixed)
      bounds.(n - 1)

let test_plan_structure () =
  List.iter
    (fun (total, batch_size) ->
      check_plan_invariants ~total ~batch_size
        (Adaptive.plan ~total ~batch_size ()))
    [ (1, 1); (10, 4); (100, 7); (275400, 512); (4096, 4096); (50, 100) ]

(* Cumulative trial count once each round of [p] has completed, read
   from the plan's public batches and boundaries. *)
let round_trials (p : Adaptive.plan) =
  Array.to_list
    (Array.map
       (fun upto ->
         Array.fold_left ( + ) 0
           (Array.map
              (fun (b : Scheduler.batch) -> b.Scheduler.count)
              (Array.sub p.Adaptive.batches 0 upto)))
       p.Adaptive.boundaries)

let test_plan_geometry () =
  (* start=100, factor=2 over 1000 trials in batches of 50: cumulative
     round targets 100, 200, 400, 800, 1000 — each already on a batch
     boundary. *)
  let p = Adaptive.plan ~start:100 ~factor:2 ~total:1000 ~batch_size:50 () in
  Alcotest.(check int) "rounds" 5 (Array.length p.Adaptive.boundaries);
  Alcotest.(check (list int)) "cumulative trials"
    [ 100; 200; 400; 800; 1000 ]
    (round_trials p);
  (* Targets that fall inside a batch round UP to its boundary. *)
  let q = Adaptive.plan ~start:100 ~factor:2 ~total:1000 ~batch_size:64 () in
  Alcotest.(check int) "round 0 rounds up to a batch boundary" 128
    (List.hd (round_trials q));
  (* start <= 0 means one batch. *)
  let r = Adaptive.plan ~total:1000 ~batch_size:64 () in
  Alcotest.(check int) "default start is one batch" 64
    (List.hd (round_trials r))

let test_plan_empty () =
  let p = Adaptive.plan ~total:0 ~batch_size:64 () in
  Alcotest.(check int) "no batches" 0 (Array.length p.Adaptive.batches);
  Alcotest.(check int) "no rounds" 0 (Array.length p.Adaptive.boundaries);
  Alcotest.check_raises "submit refuses an empty plan"
    (Invalid_argument "Adaptive.submit: empty plan for nothing") (fun () ->
      ignore
        (Adaptive.submit ~what:"nothing"
           ~shard:(fun _ -> 0)
           ~merge:( + )
           ~keep_going:(fun ~trials:_ _ -> true)
           p))

(* QCheck sweep: the structural invariants hold for arbitrary
   (total, batch_size, start, factor). *)
let plan_partition_prop =
  QCheck.Test.make ~count:200 ~name:"adaptive plan partitions the fixed plan"
    QCheck.(
      quad (int_range 0 10_000) (int_range 1 512) (int_range (-10) 2_000)
        (int_range 2 5))
    (fun (total, batch_size, start, factor) ->
      (* The shrinker may step outside the generator ranges; clamp back
         into the documented domain. *)
      let total = Stdlib.max 0 total in
      let batch_size = Stdlib.max 1 batch_size in
      let start = Stdlib.max 0 start in
      let factor = Stdlib.max 2 factor in
      let p = Adaptive.plan ~start ~factor ~total ~batch_size () in
      check_plan_invariants ~total ~batch_size p;
      (* Cumulative trials at the final boundary cover the total. *)
      match List.rev (round_trials p) with
      | [] -> total = 0
      | last :: _ -> last = total)

(* --- Adaptive: execution --------------------------------------------- *)

let early_stop_at_round_boundary ~jobs () =
  (* Count shard invocations: with start=100/factor=2 over batches of
     50 and a predicate that stops once 200 trials are merged, exactly
     rounds 0 and 1 (4 batches, 200 trials) may run — never a partial
     round, never a batch beyond the stopping boundary. *)
  let ran = Atomic.make 0 in
  let shard (b : Scheduler.batch) =
    Atomic.incr ran;
    b.Scheduler.count
  in
  let p = Adaptive.plan ~start:100 ~factor:2 ~total:1000 ~batch_size:50 () in
  let progress =
    Adaptive.await
      (Adaptive.submit ~jobs ~what:"early-stop" ~shard ~merge:( + )
         ~keep_going:(fun ~trials _ -> trials < 200)
         p)
  in
  Alcotest.(check int) "stopped at the round-1 boundary" 200
    progress.Adaptive.trials;
  Alcotest.(check int) "merged partials cover exactly those trials" 200
    progress.Adaptive.merged;
  Alcotest.(check int) "no batch beyond the boundary ran" 4 (Atomic.get ran);
  Alcotest.(check int) "rounds_run" 2 progress.Adaptive.rounds_run;
  Alcotest.(check bool) "flagged as early" true progress.Adaptive.stopped_early;
  Alcotest.(check int) "cap preserved" 1000 progress.Adaptive.cap

let test_early_stop_at_round_boundary = early_stop_at_round_boundary ~jobs:1

let test_no_stop_runs_to_cap () =
  let p = Adaptive.plan ~start:100 ~factor:2 ~total:1000 ~batch_size:50 () in
  let progress =
    Adaptive.await
      (Adaptive.submit ~jobs:1 ~what:"to-cap"
         ~shard:(fun b -> b.Scheduler.count)
         ~merge:( + )
         ~keep_going:(fun ~trials:_ _ -> true)
         p)
  in
  Alcotest.(check int) "every trial ran" 1000 progress.Adaptive.trials;
  Alcotest.(check bool) "not early" false progress.Adaptive.stopped_early;
  Alcotest.(check int) "all rounds ran" (Array.length p.Adaptive.boundaries)
    progress.Adaptive.rounds_run

let test_adaptive_jobs_invariant () =
  (* A shard with real per-batch RNG and an order-sensitive merge
     (string concatenation): serial, parallel and pipelined-parallel
     runs must agree bit for bit, including the stopping point. *)
  let shard (b : Scheduler.batch) =
    let rng = Rng.create ~seed:(Rng.derive_seed 42 b.Scheduler.index) in
    let acc = ref [] in
    for _ = 1 to b.Scheduler.count do
      acc := string_of_int (Rng.int rng 10) :: !acc
    done;
    String.concat "" (List.rev !acc)
  in
  let keep_going ~trials merged = trials < 300 && String.length merged < 250 in
  let p = Adaptive.plan ~start:64 ~factor:2 ~total:2000 ~batch_size:64 () in
  let run jobs =
    Adaptive.await
      (Adaptive.submit ~jobs ~what:"jobs-invariance" ~shard ~merge:( ^ )
         ~keep_going p)
  in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check string) "jobs:1 = jobs:4 merged" serial.Adaptive.merged
    parallel.Adaptive.merged;
  Alcotest.(check int) "jobs:1 = jobs:4 trials" serial.Adaptive.trials
    parallel.Adaptive.trials;
  Alcotest.(check bool) "same stop flag"
    serial.Adaptive.stopped_early parallel.Adaptive.stopped_early;
  (* Pipelined: two adaptive campaigns submitted before any await, so
     round-0 shards interleave on the pool queue. *)
  let a = Adaptive.submit ~jobs:4 ~what:"pipe-a" ~shard ~merge:( ^ ) ~keep_going p in
  let b = Adaptive.submit ~jobs:4 ~what:"pipe-b" ~shard ~merge:( ^ ) ~keep_going p in
  let rb = Adaptive.await b in
  let ra = Adaptive.await a in
  Alcotest.(check string) "pipelined = sequential" serial.Adaptive.merged
    ra.Adaptive.merged;
  Alcotest.(check string) "pipelined campaigns agree" ra.Adaptive.merged
    rb.Adaptive.merged

(* --- Adaptive: rounds continue on the pool ----------------------------- *)

(* 400 trials in batches of 50, start 50, factor 2: rounds of 1, 1, 2
   and 4 batches — the quick-scale shape of a collision or evict-and-time
   campaign. *)
let small_plan () =
  Adaptive.plan ~start:50 ~factor:2 ~total:400 ~batch_size:50 ()

let self_id () = (Domain.self () :> int)

let test_no_shard_on_submitter () =
  let main = self_id () in
  let p = small_plan () in
  Alcotest.(check (list int)) "rounds of 1/1/2/4 batches" [ 1; 2; 4; 8 ]
    (Array.to_list p.Adaptive.boundaries);
  let ran_on = Array.make (Array.length p.Adaptive.batches) main in
  let progress =
    Adaptive.await
      (Adaptive.submit ~jobs:2 ~what:"on-pool"
         ~shard:(fun (b : Scheduler.batch) ->
           ran_on.(b.Scheduler.index) <- self_id ();
           b.Scheduler.count)
         ~merge:( + )
         ~keep_going:(fun ~trials:_ _ -> true)
         p)
  in
  Alcotest.(check int) "every batch ran" 400 progress.Adaptive.merged;
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "batch %d ran on a worker" i)
        true (d <> main))
    ran_on;
  let one = Scheduler.map_array ~jobs:2 (fun () -> self_id ()) [| () |] in
  Alcotest.(check bool) "one-batch family runs on a worker" true
    (one.(0) <> main)

(* Campaign [c]: per-batch RNG streams, an order-sensitive merge and a
   stopping point that differs by campaign (some stop after round 0,
   some run to the cap). *)
let campaign c =
  let shard (b : Scheduler.batch) =
    let rng =
      Rng.create ~seed:(Rng.derive_seed (1000 + c) b.Scheduler.index)
    in
    String.init b.Scheduler.count (fun _ -> Char.chr (97 + Rng.int rng 26))
  in
  let keep_going ~trials _ = trials < 50 * (1 + (c mod 9)) in
  (shard, keep_going)

let submit_numbered ~jobs c =
  let shard, keep_going = campaign c in
  Adaptive.submit ~jobs ~what:(Printf.sprintf "campaign-%d" c) ~shard
    ~merge:( ^ ) ~keep_going (small_plan ())

let test_many_campaigns_match_serial () =
  let summary (pr : string Adaptive.progress) =
    (pr.Adaptive.merged, pr.Adaptive.trials, pr.Adaptive.stopped_early)
  in
  let serial =
    List.init 16 (fun c -> summary (Adaptive.await (submit_numbered ~jobs:1 c)))
  in
  Alcotest.(check bool) "campaigns stop at different rounds" true
    (List.length
       (List.sort_uniq compare (List.map (fun (_, t, _) -> t) serial))
    > 1);
  List.iter
    (fun jobs ->
      let running = List.init 16 (submit_numbered ~jobs) in
      let results =
        List.rev_map (fun r -> summary (Adaptive.await r)) (List.rev running)
      in
      Alcotest.(check (list (triple string int bool)))
        (Printf.sprintf "jobs:%d, awaited in reverse = jobs:1" jobs)
        serial results)
    [ 2; 4 ]

(* A failure ends the campaign where it happens: the exact exception
   reaches [await], and no batch of a later round starts. *)
let test_failures_surface_at_await () =
  List.iter
    (fun jobs ->
      let p = small_plan () in
      let ran = Array.make (Array.length p.Adaptive.batches) false in
      let shard ~fail_at (b : Scheduler.batch) =
        ran.(b.Scheduler.index) <- true;
        if b.Scheduler.index = fail_at then failwith "round-2 shard";
        b.Scheduler.count
      in
      let check_none_from first label =
        Array.iteri
          (fun i r ->
            if i >= first then
              Alcotest.(check bool)
                (Printf.sprintf "jobs:%d %s: batch %d never ran" jobs label i)
                false r)
          ran
      in
      Alcotest.check_raises
        (Printf.sprintf "jobs:%d shard failure" jobs)
        (Failure "round-2 shard") (fun () ->
          ignore
            (Adaptive.await
               (Adaptive.submit ~jobs ~what:"shard-fails"
                  ~shard:(shard ~fail_at:2) ~merge:( + )
                  ~keep_going:(fun ~trials:_ _ -> true)
                  p)));
      check_none_from 4 "shard failure";
      Array.fill ran 0 (Array.length ran) false;
      Alcotest.check_raises
        (Printf.sprintf "jobs:%d keep_going failure" jobs)
        (Failure "keep_going") (fun () ->
          ignore
            (Adaptive.await
               (Adaptive.submit ~jobs ~what:"decision-fails"
                  ~shard:(shard ~fail_at:(-1)) ~merge:( + )
                  ~keep_going:(fun ~trials _ ->
                    if trials >= 100 then failwith "keep_going" else true)
                  p)));
      check_none_from 2 "keep_going failure")
    [ 1; 2 ]

(* [Driver.await_all] joins every campaign even when an earlier one
   fails: every span is closed, and the later campaign ran exactly the
   batches it runs on its own — none left running on the pool. *)
let test_await_all_joins_after_failure () =
  let open Cachesec_telemetry in
  let open Cachesec_experiments in
  let spec = Cachesec_cache.Spec.paper_sa in
  let target = Sequential.target ~half_width:0.05 ~max_trials:2000 () in
  let submit ctx =
    Driver.submit_cleaning_game_adaptive ctx spec ~accesses:16 ~target
  in
  let traced f =
    let sink, events = Sink.memory () in
    let tm = Telemetry.make ~sink () in
    let r = f (Run.with_telemetry tm (Run.make ~jobs:2 ~seed:7 ())) in
    Telemetry.close tm;
    (r, events ())
  in
  let batches_under id evs =
    List.length
      (List.filter
         (function Event.Batch_end { span; _ } -> span = id | _ -> false)
         evs)
  in
  let span_ids evs =
    List.filter_map
      (function Event.Span_start { id; _ } -> Some id | _ -> None)
      evs
  in
  let alone, alone_evs = traced (fun ctx -> Driver.await (submit ctx)) in
  let (), evs =
    traced (fun ctx ->
        let first =
          Driver.map_pending
            (fun _ -> failwith "first campaign")
            (submit ctx)
        in
        let second = submit ctx in
        Alcotest.check_raises "first failure re-raised"
          (Failure "first campaign") (fun () ->
            ignore (Driver.await_all [ first; second ])))
  in
  let ended =
    List.filter_map
      (function Event.Span_end { id; _ } -> Some id | _ -> None)
      evs
  in
  Alcotest.(check (list int)) "every span closed"
    (List.sort compare (span_ids evs))
    (List.sort compare ended);
  let second_id = List.nth (span_ids evs) 1 in
  Alcotest.(check int) "second campaign ran exactly its plan"
    (batches_under (List.hd (span_ids alone_evs)) alone_evs)
    (batches_under second_id evs);
  Alcotest.(check bool) "the plan stops before the cap" true
    (alone.Driver.trials < alone.Driver.cap)

let () =
  Alcotest.run "adaptive"
    [
      ( "sequential",
        [
          Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
          Alcotest.test_case "z of confidence" `Quick test_z_of_confidence;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
          Alcotest.test_case "mean half-width" `Quick test_mean_half_width;
          Alcotest.test_case "achieved" `Quick test_achieved;
          Alcotest.test_case "target validation" `Quick test_target_validation;
          Alcotest.test_case "decide" `Quick test_decide;
        ] );
      ( "plan",
        [
          Alcotest.test_case "structure" `Quick test_plan_structure;
          Alcotest.test_case "geometry" `Quick test_plan_geometry;
          Alcotest.test_case "empty" `Quick test_plan_empty;
          QCheck_alcotest.to_alcotest plan_partition_prop;
        ] );
      ( "execution",
        [
          Alcotest.test_case "early stop at round boundary" `Quick
            test_early_stop_at_round_boundary;
          Alcotest.test_case "no stop runs to cap" `Quick
            test_no_stop_runs_to_cap;
          Alcotest.test_case "jobs-invariant" `Quick
            test_adaptive_jobs_invariant;
        ] );
      ( "pipelined",
        [
          Alcotest.test_case "no shard on the submitting domain" `Quick
            test_no_shard_on_submitter;
          Alcotest.test_case "16 campaigns match jobs:1" `Quick
            test_many_campaigns_match_serial;
          Alcotest.test_case "failures surface at await" `Quick
            test_failures_surface_at_await;
          Alcotest.test_case "early stop at round boundary, jobs:2" `Quick
            (early_stop_at_round_boundary ~jobs:2);
          Alcotest.test_case "await_all joins after a failure" `Quick
            test_await_all_joins_after_failure;
        ] );
    ]
