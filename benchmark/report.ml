(* Output of one run: a `metric` line per metric, a results file, and
   the result object as the last line of standard output. *)

type metric = string * float * string

(* The run's fastest unit of work: a pass, or serve-explore's best
   block of frames. Interference from other tenants of the host only
   ever slows a unit down, so the fastest one moves with the program and
   much less with the host than the median does (README.md). *)
let latency_s (r : Workloads.result) = Array.fold_left Float.min infinity r.units

(* The bounded end-to-end metrics, the same three on every workload. *)
let end_to_end (r : Workloads.result) : metric list =
  [
    ("setup_s", Measure.median r.setups, "s");
    ("latency_ms", latency_s r *. 1e3, "ms");
    ("peak_rss_mb", r.peak_rss_mb, "MB");
  ]

(* Printed with every digit: a rounded time would read the same on
   every run. *)
let num v = Printf.sprintf "%.17g" v

let metric_line workload (name, v, unit) =
  Printf.printf "metric %s %s %s %s\n" workload name (Printf.sprintf "%.6g" v) unit

let metrics_json (ms : metric list) =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         ms)
  ^ "}"

let result_json ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_json ms)

let write_file path contents =
  Measure.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let results_file ~workload ~seed ~seconds ~host ~digest ~expected ~correct
    ~attempted ~failed (ms : metric list) =
  write_file
    (Printf.sprintf "results/BENCHMARK_%s_%d.json" workload seed)
    (String.concat ""
       [
         "{\n  \"schema\": \"benchmark/v1\",\n";
         Printf.sprintf "  \"workload\": %S,\n  \"seed\": %d,\n  \"seconds\": %s,\n"
           workload seed (num seconds);
         Printf.sprintf "  \"host\": %s,\n" (Host.to_json host);
         Printf.sprintf "  \"digest\": %S,\n  \"expected_digest\": %s,\n" digest
           (match expected with Some d -> Printf.sprintf "%S" d | None -> "null");
         Printf.sprintf "  \"correct\": %b,\n  \"attempted\": %d,\n  \"failed\": %d,\n"
           correct attempted failed;
         Printf.sprintf "  \"metrics\": %s\n}\n" (metrics_json ms);
       ])
