open Cachesec_runtime
open Cachesec_telemetry
open Cachesec_cache
open Cachesec_analysis
module Bench_record = Cachesec_report.Bench_record

type entry = {
  mix : string;
  queries : int;
  batch : int;
  seconds : float;
  qps : float;
  p50_us : float;
  p99_us : float;
  warmup : int;
  repeats : int;
  stddev : float;
}

let default_socket = "results/.serve-bench.sock"
let default_gate_threshold = 50.

(* The gate query: the heaviest closed form served (all nine
   architectures' PIFGs under one attack), so the memo-hit/cold ratio
   measures memoization against real recomputation, not against a
   trivial formula. *)
let gate_query ~cold =
  Protocol.encode_query
    (Protocol.Table
       { attack = Attack_type.Prime_and_probe; config = Config.standard; cold })

let sim_queries =
  List.map
    (fun (attack, seed) ->
      Protocol.encode_query
        (Protocol.Validate
           {
             spec = Spec.paper_sa;
             attack;
             seed;
             quick = true;
             cold = true;
           }))
    [ (Attack_type.Flush_and_reload, 1201); (Attack_type.Prime_and_probe, 1202) ]

(* --- measurement ------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* One repetition: [frames] sequential round trips of the same frame;
   returns (total seconds, per-frame seconds). *)
let run_rep client lines ~frames =
  let times = Array.make frames 0. in
  for i = 0 to frames - 1 do
    let t0 = Clock.now_s () in
    ignore (Client.round_trip_raw client lines);
    times.(i) <- Clock.elapsed_s ~since:t0
  done;
  (Array.fold_left ( +. ) 0. times, times)

let measure_mix client ~mix ~lines ~frames ~warmup_frames ~repeats =
  let batch = List.length lines in
  for _ = 1 to warmup_frames do
    ignore (Client.round_trip_raw client lines)
  done;
  let reps = List.init repeats (fun _ -> run_rep client lines ~frames) in
  let queries = frames * batch in
  let rates =
    List.map (fun (total, _) -> float_of_int queries /. total) reps
  in
  let best_total, best_times =
    List.fold_left
      (fun (bt, bx) (t, x) -> if t < bt then (t, x) else (bt, bx))
      (List.hd reps) (List.tl reps)
  in
  let mean = List.fold_left ( +. ) 0. rates /. float_of_int repeats in
  let stddev =
    if repeats < 2 then 0.
    else
      sqrt
        (List.fold_left (fun a r -> a +. ((r -. mean) ** 2.)) 0. rates
        /. float_of_int (repeats - 1))
  in
  let per_query =
    Array.map (fun t -> t /. float_of_int batch *. 1e6) best_times
  in
  Array.sort compare per_query;
  {
    mix;
    queries;
    batch;
    seconds = best_total;
    qps = float_of_int queries /. best_total;
    p50_us = percentile per_query 0.50;
    p99_us = percentile per_query 0.99;
    warmup = warmup_frames * batch;
    repeats;
    stddev;
  }

let ensure_results_dir () =
  try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let child_flag = "--serve-bench-child"

let child_entry () =
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = child_flag then begin
    let socket = Sys.argv.(2) in
    let code =
      match
        Server.run
          { Server.socket; execution = Server.Inline; max_memo = 65536 }
      with
      | Ok () -> 0
      | Error msg ->
        prerr_endline ("serve-bench child: " ^ msg);
        1
      | exception e ->
        prerr_endline ("serve-bench child: " ^ Printexc.to_string e);
        1
    in
    exit code
  end

let bench (ctx : Run.ctx) =
  let quick = ctx.Run.quick in
  let tm = ctx.Run.telemetry in
  ensure_results_dir ();
  let socket = default_socket in
  if Sys.file_exists socket then Sys.remove socket;
  (* The server is a separate process so the numbers include real
     socket round trips, but it canNOT be a fork: on OCaml 5,
     [Unix.fork] is forbidden for the rest of the process lifetime
     once any domain has been spawned (even joined ones), and by the
     time this section runs the pool has usually spawned workers.
     Re-exec ourselves via [create_process] (posix_spawn underneath,
     domain-safe) with a sentinel argv that [child_entry] intercepts
     before Cmdliner ever sees it. Quiesce anyway: parked pool
     domains tax every parent minor GC with a STW handshake, and the
     client-side stopwatch should measure a single-domain process. *)
  Cachesec_runtime.Pool.quiesce ();
  flush stdout;
  flush stderr;
  let exe = Sys.executable_name in
  match
    Unix.create_process exe
      [| exe; child_flag; socket |]
      Unix.stdin Unix.stdout Unix.stderr
  with
  | exception Unix.Unix_error (e, _, _) ->
    failwith
      (Printf.sprintf "serve-bench: cannot spawn server child %s: %s" exe
         (Unix.error_message e))
  | pid ->
    let finished = ref false in
    Fun.protect
      ~finally:(fun () ->
        if not !finished then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          try Sys.remove socket with Sys_error _ -> ()
        end)
      (fun () ->
        let client = Client.connect_retry socket in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            (* Warm the memo (and the raw-line fast path) once. *)
            ignore (Client.round_trip_raw client [ gate_query ~cold:false ]);
            let hit_frames = if quick then 50 else 200 in
            let cold_frames = if quick then 50 else 200 in
            let repeats = if quick then 2 else 3 in
            let hit =
              measure_mix client ~mix:"memo-hit"
                ~lines:(List.init 64 (fun _ -> gate_query ~cold:false))
                ~frames:hit_frames ~warmup_frames:5 ~repeats
            in
            let cold =
              measure_mix client ~mix:"cold"
                ~lines:[ gate_query ~cold:true ]
                ~frames:cold_frames ~warmup_frames:5 ~repeats
            in
            (* Simulation-backed cells are seconds-scale: one repetition,
               one warm-up cell. *)
            let sim =
              measure_mix client ~mix:"sim"
                ~lines:sim_queries
                ~frames:(if quick then 1 else 2)
                ~warmup_frames:0 ~repeats:1
            in
            let entries = [ hit; cold; sim ] in
            List.iter
              (fun e ->
                Telemetry.gauge tm
                  (Printf.sprintf "serve_bench.%s.qps" e.mix)
                  e.qps)
              entries;
            (* Graceful shutdown: the server drains, unlinks the socket
               and exits; reap the child. *)
            ignore (Client.round_trip_raw client [ "shutdown" ]);
            ignore (Unix.waitpid [] pid);
            finished := true;
            entries))

let gate ?(threshold = default_gate_threshold) entries =
  let find mix = List.find_opt (fun e -> e.mix = mix) entries in
  match (find "memo-hit", find "cold") with
  | Some h, Some c when c.qps > 0. ->
    let ratio = h.qps /. c.qps in
    Some (ratio, ratio >= threshold)
  | _ -> None

let find entries ~mix = List.find_opt (fun e -> e.mix = mix) entries

(* --- bench record ----------------------------------------------------- *)

let schema = "bench_serve/v1"

let to_row e =
  Bench_record.
    [
      ("mix", S e.mix);
      ("queries", I e.queries);
      ("batch", I e.batch);
      ("seconds", F e.seconds);
      ("qps", F e.qps);
      ("p50_us", F e.p50_us);
      ("p99_us", F e.p99_us);
      ("warmup", I e.warmup);
      ("repeats", I e.repeats);
      ("stddev", F e.stddev);
    ]

let of_row =
  Bench_record.(
    parse (fun r ->
        {
          mix = str r "mix";
          queries = int r "queries";
          batch = int r "batch";
          seconds = float r "seconds";
          qps = float r "qps";
          p50_us = float r "p50_us";
          p99_us = float r "p99_us";
          warmup = int r "warmup";
          repeats = int r "repeats";
          stddev = float r "stddev";
        }))

let render ?baseline entries =
  let base =
    match baseline with
    | Some path -> List.filter_map of_row (Bench_record.read ~path)
    | None -> []
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "  %-10s %6s %9s %12s %10s %10s %8s %9s\n" "mix" "batch"
       "queries" "qps" "p50 us" "p99 us" "+-qps" "vs base");
  List.iter
    (fun e ->
      let vs =
        match List.find_opt (fun b -> b.mix = e.mix) base with
        | Some b when b.qps > 0. -> Printf.sprintf "%8.2fx" (e.qps /. b.qps)
        | _ -> "        -"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-10s %6d %9d %12.1f %10.2f %10.2f %8.1f %s\n" e.mix
           e.batch e.queries e.qps e.p50_us e.p99_us e.stddev vs))
    entries;
  Buffer.contents buf
