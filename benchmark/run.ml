(* Runs one workload once:

     run.exe --workload <name> --seed <n> --seconds <s> [--trace <0|1>]

   Untraced, the result line carries the end-to-end metrics; traced
   (--trace 1), the per-layer ones. See README.md. *)

open Cachesec_benchmark
open Cachesec_telemetry

let usage () =
  prerr_endline
    ("usage: run.exe --workload <" ^ String.concat "|" Workloads.names
   ^ "> --seed <n> --seconds <s> [--trace <0|1>]");
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest
      when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ]
           && not (List.mem_assoc flag acc) ->
      go ((flag, v) :: acc) rest
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list argv))

let main () =
  let args = parse Sys.argv in
  let get k = List.assoc_opt k args in
  let workload =
    match get "--workload" with
    | Some w when List.mem w Workloads.names -> w
    | _ -> usage ()
  in
  let seed =
    match Option.bind (get "--seed") int_of_string_opt with
    | Some s when s >= 0 -> s
    | _ -> usage ()
  in
  (* No default: the window is BENCHMARK.json's run_seconds, and a second
     value here would let a bare run measure something else. *)
  let seconds =
    match Option.bind (get "--seconds") float_of_string_opt with
    | Some x when x > 0. -> x
    | _ -> usage ()
  in
  let traced =
    match get "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  let host = Host.snapshot () in
  let tm, events =
    if traced then begin
      let mem, events = Sink.memory () in
      let json =
        Sink.json ~run:("benchmark-" ^ workload)
          ~path:(Printf.sprintf "results/BENCHMARK_trace_%s.json" workload)
          ()
      in
      (Telemetry.make ~sink:(Sink.tee [ mem; json ]) (), events)
    end
    else (Telemetry.null, fun () -> [])
  in
  let r = Workloads.run workload { seed; seconds; size = Full; tm } in
  Telemetry.close tm;
  let expected = Expected.find ~workload ~seed in
  let digest_ok = Option.fold ~none:true ~some:(String.equal r.digest) expected in
  let attempted = r.attempted + Option.fold ~none:0 ~some:(fun _ -> 1) expected in
  let failed = r.failed + if digest_ok then 0 else 1 in
  let correct = failed = 0 in
  let e2e = Report.end_to_end r in
  let layer =
    if traced then
      Layers.metrics ~events:(events ()) ~latency_s:(Report.latency_s r) r.obs
    else []
  in
  let shown = if traced then layer else e2e in
  List.iter (Report.metric_line workload)
    (shown @ List.filter (fun (n, _, _) -> not (List.exists (fun (m, _, _) -> m = n) shown)) r.extra);
  Printf.printf "digest %s %s%s\n" workload r.digest
    (if digest_ok then "" else " MISMATCH, expected " ^ Option.get expected);
  if not traced then
    Report.results_file ~workload ~seed ~seconds ~host ~digest:r.digest ~expected
      ~correct ~attempted ~failed (e2e @ r.extra);
  print_endline
    (Report.result_json ~correct ~attempted ~failed (if traced then layer else e2e));
  exit (if correct then 0 else 1)

let () =
  Workloads.setup_probe_entry ();
  match main () with
  | () -> ()
  | exception e ->
    prerr_endline ("benchmark: " ^ Printexc.to_string e);
    exit 2
