(* The telemetry subsystem's contract:

   - spans nest (parent ids, LIFO close, non-negative durations);
   - counters merged across scheduler workers are bit-identical for
     jobs:1 and jobs:N (timings are the only thing allowed to vary);
   - the JSON sink round-trips through its own reader under the
     versioned telemetry/v1 schema;
   - the null context allocates nothing (the hot-path guarantee the
     zero-alloc engine gates rely on). *)

open Cachesec_telemetry
open Cachesec_runtime
open Cachesec_cache
open Cachesec_experiments

let with_memory_tm f =
  let sink, events = Sink.memory () in
  let tm = Telemetry.make ~sink () in
  let r = f tm in
  Telemetry.close tm;
  (r, events ())

(* --- span nesting ---------------------------------------------------- *)

let test_span_nesting () =
  let (outer_id, inner_id), events =
    with_memory_tm @@ fun tm ->
    Telemetry.with_span tm "outer" @@ fun outer ->
    let inner_id =
      Telemetry.with_span tm ~parent:outer "inner" @@ fun inner ->
      Telemetry.span_id inner
    in
    (Telemetry.span_id outer, inner_id)
  in
  Alcotest.(check bool) "ids distinct" true (outer_id <> inner_id);
  Alcotest.(check bool) "ids positive" true (outer_id > 0 && inner_id > 0);
  let starts =
    List.filter_map
      (function
        | Event.Span_start { id; parent; _ } -> Some (id, parent)
        | _ -> None)
      events
  in
  Alcotest.(check (list (pair int int)))
    "outer rooted, inner under outer"
    [ (outer_id, 0); (inner_id, outer_id) ]
    starts;
  let ends =
    List.filter_map
      (function
        | Event.Span_end { id; dur_s; _ } -> Some (id, dur_s)
        | _ -> None)
      events
  in
  (* LIFO close: inner ends before outer. *)
  Alcotest.(check (list int))
    "LIFO close order" [ inner_id; outer_id ] (List.map fst ends);
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "non-negative duration" true (d >= 0.))
    ends

let test_with_span_closes_on_exception () =
  let (), events =
    with_memory_tm @@ fun tm ->
    try Telemetry.with_span tm "bang" (fun _ -> failwith "boom")
    with Failure _ -> ()
  in
  let ends =
    List.filter (function Event.Span_end _ -> true | _ -> false) events
  in
  Alcotest.(check int) "span closed despite exception" 1 (List.length ends)

(* --- scheduler batch events ------------------------------------------ *)

let test_scheduler_batch_events () =
  let n = 12 in
  let results, events =
    with_memory_tm @@ fun tm ->
    Telemetry.with_span tm "work" @@ fun sp ->
    Scheduler.map_array ~jobs:3 ~tm ~span:sp (fun i -> i * i)
      (Array.init n (fun i -> i))
  in
  Alcotest.(check (array int))
    "results unchanged by instrumentation"
    (Array.init n (fun i -> i * i))
    results;
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "one Batch_start per unit" n
    (count (function Event.Batch_start _ -> true | _ -> false));
  Alcotest.(check int) "one Batch_end per unit" n
    (count (function Event.Batch_end _ -> true | _ -> false));
  let busy_units =
    List.filter_map
      (function Event.Domain_busy { units; _ } -> Some units | _ -> None)
      events
  in
  Alcotest.(check bool) "at least one worker summary" true (busy_units <> []);
  Alcotest.(check int) "workers claimed every unit exactly once" n
    (List.fold_left ( + ) 0 busy_units)

(* --- counter merge: jobs:1 vs jobs:N --------------------------------- *)

let counters_for ~jobs =
  let sink, _ = Sink.memory () in
  let tm = Telemetry.make ~sink () in
  let ctx = Run.with_telemetry tm (Run.make ~jobs ~seed:42 ()) in
  let cfg =
    { Cachesec_attacks.Flush_reload.default_config with
      Cachesec_attacks.Flush_reload.trials = 600 (* spans 3 batches of 256 *)
    }
  in
  ignore (Driver.await (Driver.submit_flush_reload ctx Spec.paper_sa cfg));
  ignore
    (Driver.await
       (Driver.submit_cleaning_game ctx Spec.paper_sa ~accesses:16 ~samples:600));
  let cs = Telemetry.counters tm in
  Telemetry.close tm;
  cs

let test_counter_merge_jobs_invariant () =
  let c1 = counters_for ~jobs:1 in
  let c4 = counters_for ~jobs:4 in
  Alcotest.(check (list (pair string int)))
    "merged counters identical for jobs:1 and jobs:4" c1 c4;
  (* And they actually counted the engine traffic. *)
  Alcotest.(check bool) "cache.accesses present and positive" true
    (match List.assoc_opt "cache.accesses" c1 with
    | Some v -> v > 0
    | None -> false);
  Alcotest.(check int) "driver.trials totalled" 1200
    (Option.value ~default:0 (List.assoc_opt "driver.trials" c1))

(* --- campaign telemetry ------------------------------------------------ *)

(* What benchmark/layers.ml reads from a campaign, by name and value. A
   campaign without a target gauges [trials] (its total) once, at
   submit. A targeted one gauges [trials_cap] at submit and the executed
   [trials] at await, and counts [driver.trials_saved]. Both count
   [driver.batches] and [driver.trials], the batches and trials that
   ran. *)
let campaign_telemetry submit =
  let sink, events = Sink.memory () in
  let tm = Telemetry.make ~sink () in
  let r =
    Driver.await (submit (Run.with_telemetry tm (Run.make ~jobs:2 ~seed:42 ())))
  in
  let counters = Telemetry.counters tm in
  Telemetry.close tm;
  let events = events () in
  let spans =
    List.filter_map
      (function Event.Span_start { name; _ } -> Some name | _ -> None)
      events
  in
  let gauges =
    List.filter_map
      (function Event.Gauge { name; value; _ } -> Some (name, value) | _ -> None)
      events
  in
  (r, spans, gauges, fun name -> List.assoc_opt name counters)

let test_fixed_campaign_telemetry () =
  let cfg =
    { Cachesec_attacks.Flush_reload.default_config with
      Cachesec_attacks.Flush_reload.trials = 600 (* 3 batches of 256 *)
    }
  in
  let _, spans, gauges, counter =
    campaign_telemetry (fun ctx -> Driver.submit_flush_reload ctx Spec.paper_sa cfg)
  in
  Alcotest.(check (list string)) "one span" [ "flush-reload:sa" ] spans;
  Alcotest.(check (list (pair string (float 0.))))
    "trials gauged once, no cap" [ ("trials", 600.) ] gauges;
  Alcotest.(check (option int)) "driver.batches" (Some 3) (counter "driver.batches");
  Alcotest.(check (option int)) "driver.trials" (Some 600) (counter "driver.trials");
  Alcotest.(check (option int)) "no driver.trials_saved" None
    (counter "driver.trials_saved");
  Alcotest.(check (option int)) "attacks.trials" (Some 600) (counter "attacks.trials");
  Alcotest.(check (option int)) "attacks.flush_reload.trials" (Some 600)
    (counter "attacks.flush_reload.trials")

let test_adaptive_campaign_telemetry () =
  let target =
    Cachesec_stats.Sequential.target ~half_width:0.05 ~max_trials:2000 ()
  in
  let a, spans, gauges, counter =
    campaign_telemetry (fun ctx ->
        Driver.submit_cleaning_game_adaptive ctx Spec.paper_sa ~accesses:16
          ~target)
  in
  let trials = a.Driver.trials in
  Alcotest.(check bool) "stopped below the cap" true (trials < 2000);
  Alcotest.(check (list string)) "one span" [ "cleaning-game:sa:adaptive" ] spans;
  Alcotest.(check (list (pair string (float 0.))))
    "cap at submit, executed trials at await"
    [ ("trials_cap", 2000.); ("trials", float_of_int trials) ]
    gauges;
  (* The adaptive batch is min 250 (ceil (2000 / 8)) = 250 games. *)
  Alcotest.(check (option int)) "driver.batches" (Some (trials / 250))
    (counter "driver.batches");
  Alcotest.(check (option int)) "driver.trials" (Some trials)
    (counter "driver.trials");
  Alcotest.(check (option int)) "driver.trials_saved" (Some (2000 - trials))
    (counter "driver.trials_saved")

let test_domain_local_counts_merge () =
  let (), _ =
    with_memory_tm @@ fun tm ->
    (* Counts from several scheduler workers land in per-domain tables;
       the merged view must be the plain sum. *)
    ignore
      (Scheduler.map_array ~jobs:4
         (fun i ->
           Telemetry.count tm "units" 1;
           Telemetry.count tm "weighted" i;
           i)
         (Array.init 32 (fun i -> i)));
    Alcotest.(check (list (pair string int)))
      "name-sorted sums"
      [ ("units", 32); ("weighted", 32 * 31 / 2) ]
      (Telemetry.counters tm)
  in
  ()

(* --- JSON sink round-trip -------------------------------------------- *)

let sample_events =
  [
    Event.Span_start { id = 1; parent = 0; name = "campaign"; t_s = 0.5 };
    Event.Gauge { span = 1; name = "trials"; value = 5000.; t_s = 0.5 };
    Event.Batch_start { span = 1; index = 0; total = 2; domain = 0; t_s = 0.5 };
    Event.Batch_end
      { span = 1; index = 0; total = 2; domain = 0; t_s = 0.75; dur_s = 0.25 };
    Event.Domain_busy { span = 1; domain = 0; busy_s = 0.25; units = 1 };
    Event.Span_end
      { id = 1; parent = 0; name = "campaign"; t_s = 1.25; dur_s = 0.75 };
    Event.Counter_total { name = "cache.accesses"; value = 123456 };
  ]

let test_event_line_round_trip () =
  List.iter
    (fun e ->
      let line = Event.to_json_line e in
      match Event.of_json_line line with
      | Some e' ->
        Alcotest.(check bool) ("round-trips: " ^ line) true (e = e')
      | None -> Alcotest.failf "unparseable line: %s" line)
    sample_events;
  Alcotest.(check bool) "non-event lines rejected" true
    (Event.of_json_line "{\"schema\": \"telemetry/v1\"}" = None
    && Event.of_json_line "]" = None)

let test_json_sink_round_trip () =
  let path = Filename.temp_file "telemetry" ".json" in
  let tm = Telemetry.make ~sink:(Sink.json ~run:"test" ~path ()) () in
  Telemetry.with_span tm "outer" (fun sp ->
      Telemetry.gauge tm ~span:sp "trials" 42.;
      Telemetry.count tm "cache.accesses" 7);
  Telemetry.close tm;
  (match Sink.read_json ~path with
  | None -> Alcotest.fail "written file did not parse"
  | Some (schema, run, events) ->
    Alcotest.(check string) "schema version" Sink.schema_version schema;
    Alcotest.(check string) "run name" "test" run;
    let names =
      List.filter_map
        (function
          | Event.Span_start { name; _ } -> Some ("start:" ^ name)
          | Event.Span_end { name; _ } -> Some ("end:" ^ name)
          | Event.Gauge { name; _ } -> Some ("gauge:" ^ name)
          | Event.Counter_total { name; value } ->
            Some (Printf.sprintf "counter:%s=%d" name value)
          | _ -> None)
        events
    in
    Alcotest.(check (list string))
      "event stream (counter totals flushed at close)"
      [ "start:outer"; "gauge:trials"; "end:outer";
        "counter:cache.accesses=7" ]
      names);
  Sys.remove path

let test_default_json_path () =
  Alcotest.(check string)
    "conventional path" "results/TELEMETRY_bench.json"
    (Sink.default_json_path ~run:"bench")

let test_progress_sink_smoke () =
  (* The human sink must tolerate a full event stream without raising;
     content is for eyeballs, not assertions. *)
  let path = Filename.temp_file "progress" ".txt" in
  let oc = open_out path in
  let tm = Telemetry.make ~sink:(Sink.progress ~out:oc ()) () in
  Telemetry.with_span tm "outer" (fun sp ->
      Telemetry.gauge tm ~span:sp "trials" 10.;
      ignore
        (Scheduler.map_array ~jobs:2 ~tm ~span:sp (fun i -> i)
           (Array.init 20 (fun i -> i))));
  Telemetry.count tm "cache.accesses" 5;
  Telemetry.close tm;
  close_out oc;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "wrote something human-readable" true (len > 0)

(* --- null context is free -------------------------------------------- *)

let test_null_is_null () =
  Alcotest.(check bool) "null is null" true (Telemetry.is_null Telemetry.null);
  let sink, _ = Sink.memory () in
  Alcotest.(check bool) "active is not null" false
    (Telemetry.is_null (Telemetry.make ~sink ()));
  Alcotest.(check int) "null span id" 0 (Telemetry.span_id Telemetry.null_span)

let test_null_context_zero_alloc () =
  let tm = Telemetry.null in
  let ops () =
    for _ = 1 to 10_000 do
      let sp = Telemetry.span tm "name" in
      Telemetry.count tm "counter" 1;
      Telemetry.batch_start tm ~span:sp ~index:0 ~total:1 ~domain:0 ~t_s:0.;
      Telemetry.batch_end tm ~span:sp ~index:0 ~total:1 ~domain:0 ~start_s:0.;
      Telemetry.close_span tm sp
    done
  in
  ops ();
  (* Warmed up; now the measured pass. *)
  let before = Gc.minor_words () in
  ops ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.))
    "null telemetry allocates nothing" 0. words

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "close on exception" `Quick
            test_with_span_closes_on_exception;
          Alcotest.test_case "scheduler batch events" `Quick
            test_scheduler_batch_events;
        ] );
      ( "counters",
        [
          Alcotest.test_case "merge jobs-invariant" `Quick
            test_counter_merge_jobs_invariant;
          Alcotest.test_case "domain-local merge" `Quick
            test_domain_local_counts_merge;
          Alcotest.test_case "fixed campaign telemetry" `Quick
            test_fixed_campaign_telemetry;
          Alcotest.test_case "adaptive campaign telemetry" `Quick
            test_adaptive_campaign_telemetry;
        ] );
      ( "json",
        [
          Alcotest.test_case "event line round-trip" `Quick
            test_event_line_round_trip;
          Alcotest.test_case "sink round-trip" `Quick test_json_sink_round_trip;
          Alcotest.test_case "default path" `Quick test_default_json_path;
          Alcotest.test_case "progress sink smoke" `Quick
            test_progress_sink_smoke;
        ] );
      ( "null",
        [
          Alcotest.test_case "is_null" `Quick test_null_is_null;
          Alcotest.test_case "zero allocation" `Quick
            test_null_context_zero_alloc;
        ] );
    ]
