(* Self-test of the benchmark: tiny instances of every workload, the
   percentile definition, BENCHMARK.json against what the workloads
   emit, and daemon clean-up. *)

open Cachesec_benchmark
open Cachesec_telemetry

let tiny ?(tm = Telemetry.null) name seed =
  Workloads.run name { Workloads.seed; seconds = 0.02; size = Workloads.Tiny; tm }

let traced name seed =
  let mem, events = Sink.memory () in
  let tm = Telemetry.make ~sink:mem () in
  let r = tiny ~tm name seed in
  Telemetry.close tm;
  ( r,
    Layers.metrics ~events:(events ())
      ~latency_s:(Report.latency_s r)
      r.Workloads.obs )

(* The "name" values of the JSON array under [key]: enough of a reader
   for BENCHMARK.json's fixed shape. *)
let names_in json key =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then raise Not_found
      else if String.sub json i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let start = find (Printf.sprintf "%S: [" key) 0 in
  let stop = find "]" start in
  let rec collect i acc =
    match find "\"name\": \"" i with
    | j when j < stop ->
      let v = j + 9 in
      let e = String.index_from json v '"' in
      collect e (String.sub json v (e - v) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  collect start []

let bench = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all
let end_to_end = names_in bench "end_to_end"
let per_layer = names_in bench "per_layer"
let names = List.map (fun (n, _, _) -> n)

let test_percentile () =
  let a = [| 15.; 20.; 35.; 40.; 50. |] in
  List.iter
    (fun (p, v) ->
      Alcotest.(check (float 0.)) (Printf.sprintf "p%g" p) v (Measure.percentile a p))
    [ (5., 15.); (30., 20.); (40., 20.); (50., 35.); (100., 50.) ];
  let upto n = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (Measure.percentile (upto 100) 99.);
  Alcotest.(check (float 0.)) "p99.9 of 1..1000" 999.
    (Measure.percentile (upto 1000) 99.9);
  Alcotest.(check (float 0.)) "median of 4" 2. (Measure.median [| 4.; 1.; 3.; 2. |])

let valid_name n =
  n <> ""
  && String.length n <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n
  && match n.[0] with '.' | '_' | '-' -> false | _ -> true

let test_limits () =
  let workloads = names_in bench "workloads" in
  Alcotest.(check (list string)) "workloads" Workloads.names workloads;
  let n_e2e = List.length end_to_end and n_layer = List.length per_layer in
  Alcotest.(check bool) "1..16 end-to-end metrics" true (n_e2e >= 1 && n_e2e <= 16);
  Alcotest.(check bool) "1..128 per-layer metrics" true (n_layer >= 1 && n_layer <= 128);
  Alcotest.(check bool) "2..8 workloads" true
    (List.length workloads >= 2 && List.length workloads <= 8);
  let all = workloads @ end_to_end @ per_layer in
  List.iter (fun n -> Alcotest.(check bool) ("name " ^ n) true (valid_name n)) all;
  Alcotest.(check int) "names used once" (List.length all)
    (List.length (List.sort_uniq compare all))

(* Same seed, same digest — traced or not; another seed, other inputs;
   every declared metric emitted. *)
let test_workload name () =
  let r1, layer = traced name 1 in
  let r1' = tiny name 1 in
  let r2 = tiny name 2 in
  List.iter
    (fun (r : Workloads.result) ->
      Alcotest.(check int) "no failed operation" 0 r.failed;
      Alcotest.(check bool) "attempted" true (r.attempted > 0))
    [ r1; r1'; r2 ];
  Alcotest.(check string) "traced = untraced digest" r1.digest r1'.digest;
  Alcotest.(check bool) "seed 2 differs" true (r1.digest <> r2.digest);
  Alcotest.(check (list string)) "end-to-end metrics" end_to_end
    (names (Report.end_to_end r1'));
  Alcotest.(check (list string)) "per-layer metrics" per_layer (names layer)

let children () =
  let me = string_of_int (Unix.getpid ()) in
  List.filter
    (fun pid ->
      List.mem ("PPid:\t" ^ me)
        (Measure.read_lines (Printf.sprintf "/proc/%s/status" pid)))
    (List.filter
       (fun d -> d <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) d)
       (Array.to_list (Sys.readdir "/proc")))

let sockets () =
  if Sys.file_exists Daemon.socket_dir then
    List.filter
      (fun f -> Filename.check_suffix f ".sock")
      (Array.to_list (Sys.readdir Daemon.socket_dir))
  else []

(* Runs after the workloads, serve-explore's daemons included. *)
let test_nothing_left () =
  (match Daemon.start () with
  | d, _ -> (
    try
      Fun.protect ~finally:Daemon.kill_all (fun () -> failwith "interrupted")
    with Failure _ ->
      Alcotest.(check bool) "killed daemon reaped" true
        (match Unix.kill d.Daemon.pid 0 with
        | () -> false
        | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true)));
  Alcotest.(check int) "no live daemon" 0 (List.length !Daemon.live);
  Alcotest.(check (list string)) "no socket" [] (sockets ());
  Alcotest.(check (list string)) "no child process" [] (children ())

let () =
  Workloads.setup_probe_entry ();
  Alcotest.run "benchmark"
    [
      ( "harness",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "BENCHMARK.json limits" `Quick test_limits;
        ] );
      ( "workloads",
        List.map
          (fun w -> Alcotest.test_case w `Quick (test_workload w))
          Workloads.names );
      ( "clean-up",
        [ Alcotest.test_case "nothing left behind" `Quick test_nothing_left ] );
    ]
