(* Integration tests: the experiment drivers that regenerate the paper's
   tables and figures, run at reduced scale. *)

open Cachesec_cache
open Cachesec_analysis
open Cachesec_experiments
open Cachesec_runtime

(* A serial quick-scale context. *)
let quick seed = Run.quick (Run.make ~seed ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Setup ------------------------------------------------------------- *)

let test_setup_engines () =
  List.iter
    (fun spec ->
      let s = Setup.make spec in
      Alcotest.(check int) "attacker pid" 1 s.Setup.attacker_pid;
      Alcotest.(check int) "victim pid" 0
        (Cachesec_attacks.Victim.pid s.Setup.victim))
    Spec.all_paper

let test_setup_deterministic () =
  let r1 =
    let s = Setup.make ~seed:9 Spec.paper_sa in
    Cachesec_attacks.Flush_reload.run ~victim:s.Setup.victim ~attacker_pid:1
      ~rng:s.Setup.rng
      { Cachesec_attacks.Flush_reload.default_config with trials = 100 }
  in
  let r2 =
    let s = Setup.make ~seed:9 Spec.paper_sa in
    Cachesec_attacks.Flush_reload.run ~victim:s.Setup.victim ~attacker_pid:1
      ~rng:s.Setup.rng
      { Cachesec_attacks.Flush_reload.default_config with trials = 100 }
  in
  Alcotest.(check (array (Alcotest.float 1e-12)))
    "same seed, same result" r1.Cachesec_attacks.Flush_reload.scores
    r2.Cachesec_attacks.Flush_reload.scores

(* --- Tables -------------------------------------------------------------- *)

let test_tables_render () =
  let t3 = Tables.table3 () in
  Alcotest.(check bool) "t3 title" true (contains t3 "Table 3");
  Alcotest.(check bool) "t3 sa row" true (contains t3 "SA Cache");
  Alcotest.(check bool) "t3 newcache pas" true (contains t3 "1.95e-3");
  let t5 = Tables.table5 () in
  Alcotest.(check bool) "t5 rf" true (contains t5 "7.75e-3");
  let t6 = Tables.table6 () in
  Alcotest.(check bool) "t6 paper columns" true (contains t6 "paper T1");
  let t7 = Tables.table7 () in
  Alcotest.(check bool) "t7 all rows agree with paper" false (contains t7 "NO")

let test_table6_alt_geometry () =
  let s = Tables.table6_alt_geometry () in
  (* SA at 4 ways: Type 1 PAS = 1/4. *)
  Alcotest.(check bool) "quarter appears" true (contains s "0.25");
  (* RP at 64 sets... at 256 lines / 4 ways = 64 sets: 1/64 * 1/4. *)
  Alcotest.(check bool) "rp value" true (contains s "3.91e-3");
  Alcotest.(check bool) "nomo third" true (contains s "0.333")

let test_table6_csv_rows () =
  let rows = Tables.table6_csv_rows () in
  Alcotest.(check int) "9 x 4 rows" 36 (List.length rows);
  List.iter
    (fun row -> Alcotest.(check int) "4 columns" 4 (List.length row))
    rows

(* --- Figures --------------------------------------------------------------- *)

let test_figure4 () =
  let s = Figures.figure4 () in
  Alcotest.(check bool) "mentions paper value" true (contains s "0.691");
  Alcotest.(check bool) "plots" true (contains s "p5")

let test_figure8 () =
  let s = Figures.figure8 () in
  Alcotest.(check bool) "series names" true
    (contains s "Newcache" && contains s "32-way");
  let series = Figures.figure8_series ~ks:[ 0; 16; 64 ] in
  Alcotest.(check int) "six series" 6 (List.length series);
  (* SP/PL flat at zero; SA reaches high pre-PAS by k=64. *)
  let find name = List.assoc name series in
  List.iter
    (fun (_, p) -> Alcotest.(check (float 0.)) "sp flat" 0. p)
    (find "SP / PL (locked)");
  let sa64 = List.assoc 64 (find "SA/RP/RF 8-way") in
  Alcotest.(check bool) "sa high at 64" true (sa64 > 0.95)

let test_figure9_quick () =
  let s = Figures.render_figure9 (quick 3) in
  Alcotest.(check bool) "both caches shown" true
    (contains s "SA Cache" && contains s "Newcache");
  Alcotest.(check bool) "verdict lines" true (contains s "nibble recovered")

let test_figure10_quick () =
  let s = Figures.render_figure10 (quick 3) in
  Alcotest.(check bool) "six caches" true
    (contains s "SA Cache" && contains s "RP Cache" && contains s "RE Cache")

let test_trials_for () =
  Alcotest.(check int) "full" 4000 (Figures.trials_for Run.default 4000);
  Alcotest.(check int) "quick" 400 (Figures.trials_for (quick 42) 4000);
  Alcotest.(check int) "quick floor" 50 (Figures.trials_for (quick 42) 100)

(* --- Render digests ------------------------------------------------------ *)

(* The historical default seeds of the experiment renders, pinned by the
   MD5 of their quick-scale output: moving a default seed (or changing
   what a render draws) changes a digest. *)
let test_render_digests () =
  let check name expected render =
    Alcotest.(check string) name expected (Digest.to_hex (Digest.string render))
  in
  check "figure 9 @42" "464e5981571e62242992315e503ee89c"
    (Figures.render_figure9 (quick 42));
  check "figure 10 @42" "e9fd74ca0f669b7dc39fa0de7dcbedc5"
    (Figures.render_figure10 (quick 42));
  check "prepas crosscheck @7" "b4b5fdc8a7b501319c554d9f4f66a6e5"
    (Figures.render_prepas_crosscheck (quick 7));
  check "ablations @11-15" "be637b75ad672c5707e762562077e65d"
    (Ablations.render (quick 42));
  check "mitigation @67" "ff37f84b6972ef629c81070b2df42dea"
    (Mitigation.report (quick 67));
  check "mitigation @42" "95e7c927675bed404f0c1ff070b8a62b"
    (Mitigation.report (quick 42));
  check "llc @37" "e1be82f73af7a9f79cd678eb3ec9f1a7" (Llc.report (quick 37));
  check "skewed @19" "f9ba5bc301e5d3d84b1db526eec2cca4"
    (Extension.skewed_report (quick 19))

(* --- Validation cells --------------------------------------------------------- *)

let test_validation_cells_quick () =
  (* A clearly-leaky and a clearly-protected cell, at reduced scale. *)
  let leak =
    Validation.cell (quick 42) Spec.paper_sa
      Attack_type.Flush_and_reload
  in
  Alcotest.(check bool) "sa FR leaks" true leak.Validation.recovered;
  Alcotest.(check bool) "predicted too" true leak.Validation.predicted_leak;
  Alcotest.(check bool) "agrees" true leak.Validation.agrees;
  let safe =
    Validation.cell (quick 42) Spec.paper_newcache
      Attack_type.Flush_and_reload
  in
  Alcotest.(check bool) "newcache FR protected" false safe.Validation.recovered;
  Alcotest.(check bool) "agrees" true safe.Validation.agrees

let test_validation_render () =
  let cells =
    [
      Validation.cell (quick 42) Spec.paper_sp
        Attack_type.Evict_and_time;
    ]
  in
  let s = Validation.render cells in
  Alcotest.(check bool) "table" true (contains s "SP Cache");
  Alcotest.(check (float 1e-9)) "rate" 1. (Validation.agreement_rate cells)

(* --- Ablations (structure only, quick) ------------------------------------------ *)

let test_ablation_rf_window_analytics () =
  (* The analytic column of the RF sweep must follow 1/(2w+1) without
     running the simulations at full size. *)
  List.iter
    (fun w ->
      let spec =
        Spec.Rf { ways = 8; policy = Policy.Random; back = w; fwd = w }
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "w=%d" w)
        (1. /. float_of_int ((2 * w) + 1))
        (Attack_models.pas Attack_type.Cache_collision spec ()))
    [ 0; 4; 16; 64; 128 ]

(* --- Sweeps ------------------------------------------------------------------------ *)

let test_sweep_associativity () =
  List.iter
    (fun (w, pas, _) ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "1/%d" w)
        (1. /. float_of_int w)
        pas)
    (Sweeps.associativity_sweep ~ways:[ 1; 2; 4; 8; 16 ]);
  (* pre-PAS at k = 2w decreases with associativity (Figure 8's lesson). *)
  let ps =
    List.map (fun (_, _, p) -> p) (Sweeps.associativity_sweep ~ways:[ 2; 4; 8; 16 ])
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "prepas decreasing" true (decreasing ps)

let test_sweep_cache_size () =
  List.iter
    (fun (n, pas) ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "1/%d" n)
        (1. /. float_of_int n)
        pas)
    (Sweeps.cache_size_sweep ~lines:[ 64; 512; 2048 ])

let test_sweep_rf_window () =
  let w0 = List.hd (Sweeps.rf_window_sweep ~windows:[ 0 ]) in
  (match w0 with
  | _, p3, p2 ->
    Alcotest.(check (float 1e-12)) "window 0 collision" 1.0 p3;
    Alcotest.(check (float 1e-9)) "window 0 type2 like SA" (0.125 *. 0.125) p2);
  let _, p3, _ = List.hd (Sweeps.rf_window_sweep ~windows:[ 64 ]) in
  Alcotest.(check (float 1e-12)) "paper window" (1. /. 129.) p3

let test_sweep_nomo () =
  let r0 = List.hd (Sweeps.nomo_reservation_sweep ~ways:8 ~reserved:[ 0 ]) in
  (match r0 with
  | _, pas, _ -> Alcotest.(check (float 1e-12)) "r=0 degrades to SA" 0.125 pas);
  let _, pas6, _ =
    List.hd (Sweeps.nomo_reservation_sweep ~ways:8 ~reserved:[ 6 ])
  in
  Alcotest.(check (float 1e-12)) "r=6 spill over 2 ways" 0.5 pas6

let test_sweep_csv_shapes () =
  List.iter
    (fun (name, header, rows) ->
      Alcotest.(check bool) (name ^ " non-empty") true (rows <> []);
      List.iter
        (fun row ->
          Alcotest.(check int) (name ^ " width") (List.length header)
            (List.length row))
        rows)
    (Sweeps.csv_rows ())

(* --- Edge measurement ------------------------------------------------------------ *)

let test_edge_sa_eviction () =
  let m = Edge_measure.eviction_stage ~samples:8000 Spec.paper_sa in
  Alcotest.(check (float 0.015)) "sa 1/8" m.Edge_measure.closed_form
    m.Edge_measure.measured

let test_edge_partitioned_zero () =
  List.iter
    (fun spec ->
      let m = Edge_measure.eviction_stage ~samples:500 spec in
      Alcotest.(check (float 0.)) (Spec.name spec) 0. m.Edge_measure.measured)
    [ Spec.paper_sp; Spec.paper_pl ]

let test_edge_nomo () =
  let m = Edge_measure.eviction_stage ~samples:8000 Spec.paper_nomo in
  Alcotest.(check (float 0.02)) "nomo 1/6" m.Edge_measure.closed_form
    m.Edge_measure.measured

let test_edge_re_reuse () =
  let m = Edge_measure.reuse_stage ~samples:3000 ~gap:100 Spec.paper_re in
  Alcotest.(check (float 0.02)) "re decay" m.Edge_measure.closed_form
    m.Edge_measure.measured

let test_edge_rf_reuse () =
  let m = Edge_measure.reuse_stage ~samples:3000 ~gap:10 Spec.paper_rf in
  Alcotest.(check (float 0.01)) "rf p0" m.Edge_measure.closed_form
    m.Edge_measure.measured

let test_edge_cross_context () =
  List.iter
    (fun spec ->
      let m = Edge_measure.cross_context_stage ~samples:400 spec in
      Alcotest.(check (float 0.)) (Spec.name spec) 0. m.Edge_measure.measured)
    [ Spec.paper_newcache; Spec.paper_rp ]

(* The whole table at 400 samples, pinned by digest: each stage builds
   one engine and resets it per sample, and every sample must still see
   exactly the cache a fresh build on its stream would (RF's reuse and
   cross-context samples see the spec's victim window only because the
   reset restores it). Recorded from the build-per-sample code. *)
let test_edge_render_pinned () =
  let rendered = Edge_measure.render (Edge_measure.table ~samples:400 ()) in
  Alcotest.(check string) "render digest" "43b4851c1e82bceb64e9a8fa57d50499"
    (Digest.to_hex (Digest.string rendered))

(* --- Bench record -------------------------------------------------------- *)

module Br = Cachesec_report.Bench_record
module Sb = Cachesec_serve.Serve_bench

(* The committed bench files: copied next to the test under dune
   runtest, read from the repository root when run standalone. *)
let bench_file name =
  let p = "bench/" ^ name in
  if Sys.file_exists p then p else "../bench/" ^ name

let cache_base = bench_file "BENCH_cache.baseline.json"
let cache_seed = bench_file "BENCH_cache.seed.json"
let attacks_base = bench_file "BENCH_attacks.baseline.json"
let attacks_seed = bench_file "BENCH_attacks.seed.json"
let e2e_base = bench_file "BENCH_e2e.baseline.json"
let serve_base = bench_file "BENCH_serve.baseline.json"
let load of_row path = List.filter_map of_row (Br.read ~path)

(* Floats that %.6f / %.1f would have rounded: the writer must bring
   every one of them back bit-identically (and the cache row's kernel
   string its quotes, comma and backslash). *)
let awkward = [| 1. /. 3.; 18123259.483712345; 1e-9; 0.1; 0.; 1e300 |]

let cache_entry =
  { Throughput.arch = "sa"; policy = "lru"; accesses = 400_000;
    seconds = awkward.(0); per_sec = awkward.(1); warmup = 20_000;
    repeats = 3; stddev = awkward.(2); kernel = "a \"quoted\", \\ kernel";
    slab_bytes = 24624 }

let attacks_entry =
  { Throughput.Attacks.attack = "prime-probe"; arch = "sa"; path = "batched";
    trials = 1500; seconds = awkward.(3); per_sec = awkward.(1) }

let e2e_entry =
  { Throughput.E2e.section = "figures"; mode = "pipelined"; jobs = 2;
    cores = 2; units = 2; seconds = awkward.(5) }

let adaptive_entry =
  { Throughput.Adaptive.arm = "adaptive"; jobs = 2; cores = 2; cells = 36;
    trials = 44924; caps = 275400; width = awkward.(0); seconds = awkward.(4) }

let serve_entry =
  { Sb.mix = "memo-hit"; queries = 12800; batch = 64; seconds = awkward.(2);
    qps = awkward.(1); p50_us = awkward.(3); p99_us = 3.1; warmup = 320;
    repeats = 3; stddev = awkward.(0) }

let with_temp f =
  let path = Filename.temp_file "bench_record" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_text path = In_channel.with_open_text path In_channel.input_all

let test_bench_record_round_trip () =
  List.iter
    (fun span_id ->
      let round_trip ~schema rows check =
        with_temp (fun path ->
            Br.write ?span_id ~schema ~path rows;
            let text = read_text path in
            Alcotest.(check bool) "schema line" true
              (contains text (Printf.sprintf "\"schema\": \"%s\",\n" schema));
            Alcotest.(check bool) "telemetry_span line" (span_id = Some 7)
              (contains text "  \"telemetry_span\": 7,\n");
            check path)
      in
      round_trip ~schema:Throughput.schema [ Throughput.to_row cache_entry ]
        (fun path ->
          Alcotest.(check bool) "cache" true
            (load Throughput.of_row path = [ cache_entry ]);
          Alcotest.(check bool) "CI's policy-row grep" true
            (contains (read_text path) "{\"arch\": \"sa\", \"policy\": \"lru\", "));
      round_trip ~schema:Throughput.Attacks.schema
        [ Throughput.Attacks.to_row attacks_entry ]
        (fun path ->
          Alcotest.(check bool) "attacks" true
            (load Throughput.Attacks.of_row path = [ attacks_entry ]);
          Alcotest.(check bool) "CI's path grep" true
            (contains (read_text path) "\"path\": \"batched\""));
      (* Both e2e row kinds share one file; each suite reads only its own. *)
      round_trip ~schema:Throughput.E2e.schema
        [ Throughput.E2e.to_row e2e_entry;
          Throughput.Adaptive.to_row adaptive_entry ]
        (fun path ->
          Alcotest.(check bool) "e2e" true
            (load Throughput.E2e.of_row path = [ e2e_entry ]);
          Alcotest.(check bool) "adaptive" true
            (load Throughput.Adaptive.of_row path = [ adaptive_entry ]));
      round_trip ~schema:Sb.schema [ Sb.to_row serve_entry ] (fun path ->
          Alcotest.(check bool) "serve" true
            (load Sb.of_row path = [ serve_entry ])))
    [ None; Some 7 ]

let test_bench_record_absent () =
  Alcotest.(check int) "absent file" 0
    (List.length (Br.read ~path:"no/such/BENCH_file.json"))

let test_bench_record_committed () =
  let count name n rows = Alcotest.(check int) name n (List.length rows) in
  count "cache baseline" 25 (load Throughput.of_row cache_base);
  let seed = load Throughput.of_row cache_seed in
  count "cache seed" 25 seed;
  Alcotest.(check bool) "v1 cache rows take the missing-key defaults" true
    (List.for_all
       (fun e ->
         Throughput.(
           e.warmup = 0 && e.repeats = 1 && e.stddev = 0. && e.kernel = ""
           && e.slab_bytes = 0))
       seed);
  count "attacks baseline" 24 (load Throughput.Attacks.of_row attacks_base);
  let seed = load Throughput.Attacks.of_row attacks_seed in
  count "attacks seed" 12 seed;
  Alcotest.(check bool) "v1 attack rows are scalar" true
    (List.for_all (fun e -> e.Throughput.Attacks.path = "scalar") seed);
  count "e2e" 4 (load Throughput.E2e.of_row e2e_base);
  count "e2e adaptive" 2 (load Throughput.Adaptive.of_row e2e_base);
  count "serve" 3 (load Sb.of_row serve_base)

(* MD5s of each suite's table over the committed files, recorded with
   the per-suite readers this module replaced. *)
let test_bench_record_render_digests () =
  let check name expected render =
    Alcotest.(check string) name expected (Digest.to_hex (Digest.string render))
  in
  check "cache baseline" "8e5ade75b098af82c754855f17f709ad"
    (Throughput.render ~baseline:cache_base (load Throughput.of_row cache_base));
  check "cache seed" "93eaab16bf3c2359ce43559c4844d55f"
    (Throughput.render ~baseline:cache_base (load Throughput.of_row cache_seed));
  check "attacks baseline" "1fac8b40fc5d05eb4c0094791aae3a6e"
    (Throughput.Attacks.render ~baseline:attacks_base
       (load Throughput.Attacks.of_row attacks_base));
  check "attacks seed" "efb2d2431f416fb4b8ce29d780f70d1d"
    (Throughput.Attacks.render ~baseline:attacks_base
       (load Throughput.Attacks.of_row attacks_seed));
  check "e2e" "0a49fa61159f7dbad31b9e0bd89f0ea6"
    (Throughput.E2e.render ~baseline:e2e_base
       (load Throughput.E2e.of_row e2e_base));
  check "adaptive" "efdca2c64487c2df1f3a8f66312a91ae"
    (Throughput.Adaptive.render ~baseline:e2e_base
       (load Throughput.Adaptive.of_row e2e_base));
  check "serve" "fe9ab62db8d470bbacccfb2050085427"
    (Sb.render ~baseline:serve_base (load Sb.of_row serve_base))

let test_bench_record_gates () =
  let ratios =
    Throughput.Attacks.gate ~baseline:attacks_seed
      (load Throughput.Attacks.of_row attacks_base)
    |> List.map (fun (attack, x, pass) ->
           Printf.sprintf "%s %s %b" attack
             (match x with Some x -> Printf.sprintf "%h" x | None -> "-")
             pass)
  in
  Alcotest.(check (list string)) "per-class ratios"
    [ "prime-probe 0x1.25b8df303038fp+1 true";
      "evict-time 0x1.b43924c35c9eep+0 true";
      "flush-reload 0x1.8efe43c1a3a97p+0 true";
      "collision 0x1.9ff02d8d3ee7bp+0 true" ]
    ratios;
  match Throughput.find (load Throughput.of_row cache_seed) ~arch:"sa" ~policy:"lru" with
  | Some e ->
    Alcotest.(check string) "sa/lru seed rate" "0x1.11374d3333333p+22"
      (Printf.sprintf "%h" e.Throughput.per_sec)
  | None -> Alcotest.fail "no sa/lru row in the cache seed"

let () =
  Alcotest.run "experiments"
    [
      ( "setup",
        [
          Alcotest.test_case "all engines" `Quick test_setup_engines;
          Alcotest.test_case "deterministic" `Quick test_setup_deterministic;
        ] );
      ( "tables",
        [
          Alcotest.test_case "render" `Quick test_tables_render;
          Alcotest.test_case "alt geometry" `Quick test_table6_alt_geometry;
          Alcotest.test_case "csv rows" `Quick test_table6_csv_rows;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure 4" `Quick test_figure4;
          Alcotest.test_case "figure 8" `Quick test_figure8;
          Alcotest.test_case "figure 9 quick" `Slow test_figure9_quick;
          Alcotest.test_case "figure 10 quick" `Slow test_figure10_quick;
          Alcotest.test_case "trials_for" `Quick test_trials_for;
          Alcotest.test_case "render digests" `Quick test_render_digests;
        ] );
      ( "validation",
        [
          Alcotest.test_case "cells quick" `Slow test_validation_cells_quick;
          Alcotest.test_case "render" `Slow test_validation_render;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "rf window analytics" `Quick
            test_ablation_rf_window_analytics;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "associativity" `Quick test_sweep_associativity;
          Alcotest.test_case "cache size" `Quick test_sweep_cache_size;
          Alcotest.test_case "rf window" `Quick test_sweep_rf_window;
          Alcotest.test_case "nomo reservation" `Quick test_sweep_nomo;
          Alcotest.test_case "csv shapes" `Quick test_sweep_csv_shapes;
        ] );
      ( "bench_record",
        [
          Alcotest.test_case "round trip" `Quick test_bench_record_round_trip;
          Alcotest.test_case "absent file" `Quick test_bench_record_absent;
          Alcotest.test_case "committed files" `Quick
            test_bench_record_committed;
          Alcotest.test_case "render digests" `Quick
            test_bench_record_render_digests;
          Alcotest.test_case "gates" `Quick test_bench_record_gates;
        ] );
      ( "edge measurement",
        [
          Alcotest.test_case "sa eviction stage" `Quick test_edge_sa_eviction;
          Alcotest.test_case "partitioned eviction zero" `Quick
            test_edge_partitioned_zero;
          Alcotest.test_case "nomo eviction" `Slow test_edge_nomo;
          Alcotest.test_case "re reuse decay" `Quick test_edge_re_reuse;
          Alcotest.test_case "rf reuse window" `Quick test_edge_rf_reuse;
          Alcotest.test_case "cross-context pid caches" `Quick
            test_edge_cross_context;
          Alcotest.test_case "render digest pinned" `Quick
            test_edge_render_pinned;
        ] );
    ]
