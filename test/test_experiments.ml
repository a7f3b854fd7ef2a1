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
  check "llc @37" "e1be82f73af7a9f79cd678eb3ec9f1a7" (Llc.report (quick 37))

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
  Alcotest.(check bool) "rate" true (contains s "agreement: 100%")

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
