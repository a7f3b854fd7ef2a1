(* Tests for the post-paper extensions: the skewed cache, workload
   generators, performance measurement, multi-line analysis, full-key
   recovery and the MI metric comparison. *)

open Cachesec_stats
open Cachesec_cache
open Cachesec_analysis
open Cachesec_experiments

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let rng () = Rng.create ~seed:2024

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Skewed cache -------------------------------------------------------- *)

let test_skewed_hit_after_fill () =
  let c = Skewed.create ~rng:(rng ()) () in
  Alcotest.(check int) "banks" 8 (Skewed.banks c);
  Alcotest.(check int) "slots" 64 (Skewed.slots_per_bank c);
  ignore (Skewed.access c ~pid:0 7);
  Alcotest.(check bool) "hit" true (Outcome.is_hit (Skewed.access c ~pid:0 7))

let test_skewed_domain_isolation () =
  let c = Skewed.create ~rng:(rng ()) () in
  ignore (Skewed.access c ~pid:0 7);
  Alcotest.(check bool) "cross-domain miss" true
    (Outcome.is_miss (Skewed.access c ~pid:1 7));
  Alcotest.(check bool) "victim copy alive" true (Skewed.peek c ~pid:0 7)

let test_skewed_mappings_differ () =
  let c = Skewed.create ~rng:(rng ()) () in
  (* Two domains agree on a line's slot in a given bank only by chance;
     over 8 banks and many lines, the mappings must differ somewhere. *)
  let differs = ref false in
  for addr = 0 to 63 do
    for bank = 0 to 7 do
      if Skewed.slot_of c ~pid:0 ~bank addr <> Skewed.slot_of c ~pid:1 ~bank addr
      then differs := true
    done
  done;
  Alcotest.(check bool) "per-domain keys" true !differs

let test_skewed_banks_skew () =
  let c = Skewed.create ~rng:(rng ()) () in
  (* A single line maps to (mostly) different slots across banks. *)
  let slots =
    List.sort_uniq compare
      (List.init 8 (fun bank -> Skewed.slot_of c ~pid:0 ~bank 100))
  in
  Alcotest.(check bool) "skewed across banks" true (List.length slots >= 4)

let test_skewed_no_deterministic_conflict () =
  (* Victim parks a line; attacker hammers 500 distinct lines; the victim
     line survives with overwhelming probability only on a keyed cache if
     the attacker cannot aim - expect survival more often than not. *)
  let survived = ref 0 in
  for trial = 0 to 9 do
    let c = Skewed.create ~rng:(Rng.create ~seed:trial) () in
    ignore (Skewed.access c ~pid:0 7);
    for k = 1 to 200 do
      ignore (Skewed.access c ~pid:1 (10000 + k))
    done;
    if Skewed.peek c ~pid:0 7 then incr survived
  done;
  (* Each attacker miss evicts the victim line w.p. 1/512: 200 accesses
     leave it alive w.p. ~0.68. *)
  Alcotest.(check bool) "usually survives" true (!survived >= 4)

let test_skewed_flush () =
  let c = Skewed.create ~rng:(rng ()) () in
  ignore (Skewed.access c ~pid:0 7);
  Alcotest.(check bool) "attacker cannot flush victim copy" false
    (Skewed.flush_line c ~pid:1 7);
  Alcotest.(check bool) "owner flush" true (Skewed.flush_line c ~pid:0 7);
  ignore (Skewed.access c ~pid:0 7);
  Skewed.flush_all c;
  Alcotest.(check bool) "flush all" false (Skewed.peek c ~pid:0 7)

(* --- Workload ------------------------------------------------------------- *)

let test_workload_shapes () =
  let r = rng () in
  let seq = Workload.generate (Workload.Sequential { start = 5; length = 3 }) r ~accesses:5 in
  Alcotest.(check (array int)) "sequential clamps" [| 5; 6; 7; 7; 7 |] seq;
  let loop = Workload.generate (Workload.Loop { start = 0; length = 3 }) r ~accesses:5 in
  Alcotest.(check (array int)) "loop wraps" [| 0; 1; 2; 0; 1 |] loop;
  let strided =
    Workload.generate (Workload.Strided { start = 0; stride = 10; count = 2 }) r ~accesses:4
  in
  Alcotest.(check (array int)) "strided" [| 0; 10; 0; 10 |] strided

let test_workload_uniform_range () =
  let r = rng () in
  let u = Workload.generate (Workload.Uniform { base = 100; range = 50 }) r ~accesses:1000 in
  Array.iter
    (fun l -> Alcotest.(check bool) "in range" true (l >= 100 && l < 150))
    u

let test_workload_zipf_skew () =
  let r = rng () in
  let z =
    Workload.generate (Workload.Zipf { base = 0; range = 100; exponent = 1.2 }) r
      ~accesses:20000
  in
  (* The most popular line should dominate a uniform share. *)
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun l ->
      Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
    z;
  let top = Hashtbl.fold (fun _ c acc -> Stdlib.max c acc) counts 0 in
  Alcotest.(check bool) "zipf head heavy" true (top > 20000 / 100 * 5);
  Array.iter (fun l -> Alcotest.(check bool) "range" true (l >= 0 && l < 100)) z

let test_workload_validation () =
  let r = rng () in
  Alcotest.(check bool) "bad accesses raises" true
    (try
       ignore (Workload.generate (Workload.Loop { start = 0; length = 1 }) r ~accesses:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty range raises" true
    (try
       ignore (Workload.generate (Workload.Uniform { base = 0; range = 0 }) r ~accesses:1);
       false
     with Invalid_argument _ -> true)

let test_workload_hit_rate () =
  let engine =
    Factory.build Spec.paper_sa Factory.default_scenario ~rng:(rng ())
  in
  let hr =
    Workload.hit_rate engine ~pid:0 (Workload.Loop { start = 0; length = 64 })
      ~rng:(rng ()) ~accesses:10000
  in
  (* 64 lines fit trivially: first pass misses, everything else hits. *)
  Alcotest.(check bool) "fitting loop nearly all hits" true (hr > 0.99)

(* --- Performance ------------------------------------------------------------ *)

let test_performance_capacity_cost () =
  (* SP halves the victim's capacity: on a working set that fits SA but
     not half the cache, SA must beat SP clearly. *)
  let loop = Workload.Loop { start = 0; length = 384 } in
  let sa = Performance.measure ~accesses:20000 Spec.paper_sa loop in
  let sp = Performance.measure ~accesses:20000 Spec.paper_sp loop in
  Alcotest.(check bool) "sp capacity cost" true (sa > sp +. 0.2)

let test_performance_conflict_immunity () =
  (* Newcache has no set conflicts: a pathological stride that thrashes
     one set of the SA cache is free on Newcache. *)
  let stride = Workload.Strided { start = 0; stride = 64; count = 48 } in
  let sa = Performance.measure ~accesses:20000 Spec.paper_sa stride in
  let nc = Performance.measure ~accesses:20000 Spec.paper_newcache stride in
  Alcotest.(check bool) "newcache conflict-free" true (nc > 0.9 && sa < 0.2)

let test_performance_table_renders () =
  let s = Performance.hit_rate_table ~accesses:5000 () in
  Alcotest.(check bool) "all archs present" true
    (contains s "Newcache" && contains s "Skewed (ext.)" && contains s "loop 256")

(* --- Multi-line analysis ------------------------------------------------------ *)

let test_multi_reduces_to_single () =
  List.iter
    (fun spec ->
      Alcotest.(check (float 1e-12))
        (Spec.name spec ^ " m=1")
        (Attack_models.pas Attack_type.Evict_and_time spec ())
        (Multi.evict_and_time ~lines:1 spec))
    Spec.all_paper

let test_multi_compounds () =
  Alcotest.(check (float 1e-12)) "sa 4 lines" (0.125 ** 4.)
    (Multi.evict_and_time ~lines:4 Spec.paper_sa);
  Alcotest.(check (float 1e-12)) "re unchanged" 1.0
    (Multi.evict_and_time ~lines:4 Spec.paper_re);
  Alcotest.(check (float 1e-12)) "sp still zero" 0.
    (Multi.evict_and_time ~lines:4 Spec.paper_sp);
  Alcotest.(check (float 1e-30)) "newcache type2 collapses"
    ((1. /. 512.) ** 4. *. (1. /. 512.) ** 4.)
    (Multi.prime_and_probe ~lines:4 Spec.paper_newcache)

let prop_multi_monotone =
  qtest "PAS non-increasing in required lines"
    QCheck.(pair (int_bound 8) (int_range 1 6))
    (fun (which, m) ->
      let spec = List.nth Spec.all_paper which in
      Multi.evict_and_time ~lines:(m + 1) spec
      <= Multi.evict_and_time ~lines:m spec +. 1e-12)

let test_multi_validation () =
  Alcotest.check_raises "zero lines"
    (Invalid_argument "Multi: lines must be positive") (fun () ->
      ignore (Multi.evict_and_time ~lines:0 Spec.paper_sa))

(* --- Full key ------------------------------------------------------------------ *)

let test_full_key_sa () =
  let s = Setup.make ~seed:5 Spec.paper_sa in
  let r =
    Cachesec_attacks.Full_key.flush_reload ~victim:s.Setup.victim
      ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng ~trials_per_byte:600
  in
  Alcotest.(check int) "all 16 nibbles" 16 r.Cachesec_attacks.Full_key.nibbles_recovered;
  Alcotest.(check int) "64 bits" 64 r.Cachesec_attacks.Full_key.bits_recovered;
  (* The winners' high nibbles must spell the FIPS key's high nibbles. *)
  let key = Cachesec_crypto.Aes.bytes_of_hex Setup.default_key_hex in
  Array.iteri
    (fun i w ->
      Alcotest.(check int)
        (Printf.sprintf "byte %d nibble" i)
        (Char.code (Bytes.get key i) lsr 4)
        (w lsr 4))
    r.Cachesec_attacks.Full_key.per_byte_winner;
  Alcotest.(check bool) "render mentions count" true
    (contains (Cachesec_attacks.Full_key.render r) "16/16")

let test_full_key_newcache_chance () =
  let s = Setup.make ~seed:5 Spec.paper_newcache in
  let r =
    Cachesec_attacks.Full_key.flush_reload ~victim:s.Setup.victim
      ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng ~trials_per_byte:200
  in
  (* Flat profiles guess nibble 0 for every byte; only bytes whose true
     high nibble is 0 can "succeed" (k = 2b7e...3c has byte 12 = 0x09). *)
  Alcotest.(check bool) "chance level" true
    (r.Cachesec_attacks.Full_key.nibbles_recovered <= 2)

(* --- Metrics --------------------------------------------------------------------- *)

let test_metrics_leaky_vs_protected () =
  let sa = Metrics.run_row ~trials:800 Spec.paper_sa in
  Alcotest.(check bool) "sa transmits ~4 bits" true (sa.Metrics.mi_bits > 3.5);
  let nc = Metrics.run_row ~trials:800 Spec.paper_newcache in
  Alcotest.(check bool) "newcache transmits ~0" true (nc.Metrics.mi_bits < 0.1);
  let rf = Metrics.run_row ~trials:800 Spec.paper_rf in
  Alcotest.(check bool) "rf in between" true
    (rf.Metrics.mi_bits > nc.Metrics.mi_bits && rf.Metrics.mi_bits < 1.5)

let test_metrics_render () =
  let rows =
    [ Metrics.run_row ~trials:300 Spec.paper_sa ] in
  Alcotest.(check bool) "renders" true
    (contains (Metrics.render rows) "MI (bits)")

(* --- Recorder --------------------------------------------------------------------- *)

let test_recorder_basic () =
  let base = Factory.build Spec.paper_sa Factory.default_scenario ~rng:(rng ()) in
  let rec_, wrapped = Recorder.wrap base in
  ignore (wrapped.Engine.access ~pid:0 5);
  ignore (wrapped.Engine.access ~pid:0 5);
  ignore (wrapped.Engine.access ~pid:1 9);
  ignore (wrapped.Engine.flush_line ~pid:1 5);
  Alcotest.(check int) "four events" 4 (Recorder.count rec_);
  let evs = Recorder.events rec_ in
  (match evs with
  | [ e1; e2; e3; e4 ] ->
    Alcotest.(check bool) "first is a miss" false e1.Recorder.hit;
    Alcotest.(check bool) "second is a hit" true e2.Recorder.hit;
    Alcotest.(check int) "third pid" 1 e3.Recorder.pid;
    Alcotest.(check bool) "flush recorded" true (e4.Recorder.kind = `Flush)
  | _ -> Alcotest.fail "expected four events");
  Alcotest.(check (list int)) "lines touched by pid 0" [ 5 ]
    (Recorder.lines_touched rec_ ~pid:0);
  Alcotest.(check int) "csv width" 5
    (List.length (List.hd (Recorder.csv_rows rec_)));
  Recorder.clear rec_;
  Alcotest.(check int) "cleared" 0 (Recorder.count rec_)

let test_recorder_transparent () =
  (* Wrapping must not change cache behaviour. *)
  let trace engine =
    let r = Rng.create ~seed:12 in
    List.init 2000 (fun _ ->
        Cachesec_cache.Outcome.is_hit
          (engine.Engine.access ~pid:(Rng.int r 2) (Rng.int r 300)))
  in
  let plain = Factory.build Spec.paper_sa Factory.default_scenario ~rng:(Rng.create ~seed:4) in
  let _, wrapped =
    Recorder.wrap
      (Factory.build Spec.paper_sa Factory.default_scenario ~rng:(Rng.create ~seed:4))
  in
  Alcotest.(check bool) "identical traces" true (trace plain = trace wrapped)

(* --- SVF --------------------------------------------------------------------------- *)

let test_svf_leaky_vs_protected () =
  let sa = Svf.run_row ~intervals:60 Spec.paper_sa in
  Alcotest.(check bool) "sa positive svf" true (sa.Svf.svf > 0.15);
  let nc = Svf.run_row ~intervals:60 Spec.paper_newcache in
  Alcotest.(check bool) "newcache near zero" true (Float.abs nc.Svf.svf < 0.1);
  let pl = Svf.run_row ~intervals:60 Spec.paper_pl in
  Alcotest.(check bool) "pl locked near zero" true (Float.abs pl.Svf.svf < 0.1)

let test_svf_render () =
  let s = Svf.render [ Svf.run_row ~intervals:30 Spec.paper_sp ] in
  Alcotest.(check bool) "renders" true (contains s "SVF")

(* --- Learning curves ------------------------------------------------------------------ *)

let test_learning_curve_ordering () =
  let grid = [ 100; 400 ] in
  let final c = snd (List.nth c.Learning_curves.points 1) in
  let ctx = Cachesec_runtime.Run.make ~seed:61 () in
  let sa = Learning_curves.curve ~seeds:4 ~grid ctx Spec.paper_sa in
  Alcotest.(check (float 0.)) "sa instant" 1. (final sa);
  let nc = Learning_curves.curve ~seeds:4 ~grid ctx Spec.paper_newcache in
  Alcotest.(check (float 0.)) "newcache never" 0. (final nc);
  Alcotest.(check bool) "csv rows" true
    (List.length (Learning_curves.csv_rows [ sa; nc ]) = 4)

let test_learning_curve_seeds_positive () =
  Alcotest.check_raises "seeds = 0"
    (Invalid_argument "Learning_curves.curve: seeds must be positive")
    (fun () ->
      ignore
        (Learning_curves.curve ~seeds:0 Cachesec_runtime.Run.default
           Spec.paper_sa))

(* --- Covert channels ---------------------------------------------------------------- *)

let test_covert_set_conflict () =
  let sa = Covert.run_row ~bits:800 Covert.Set_conflict Spec.paper_sa in
  Alcotest.(check bool) "sa conflict channel works" true (sa.Covert.capacity > 0.5);
  let rp = Covert.run_row ~bits:800 Covert.Set_conflict Spec.paper_rp in
  Alcotest.(check bool) "rp kills it" true (rp.Covert.capacity < 0.1);
  let nc = Covert.run_row ~bits:800 Covert.Set_conflict Spec.paper_newcache in
  Alcotest.(check bool) "newcache kills it" true (nc.Covert.capacity < 0.2)

let test_covert_occupancy_universal () =
  List.iter
    (fun spec ->
      let r = Covert.run_row ~bits:400 Covert.Occupancy spec in
      Alcotest.(check bool)
        (Spec.name spec ^ " occupancy survives")
        true
        (r.Covert.capacity > 0.9))
    [ Spec.paper_sa; Spec.paper_sp; Spec.paper_newcache; Spec.paper_rf ]

let test_covert_validation () =
  Alcotest.check_raises "bits" (Invalid_argument "Covert.run_row: bits must be positive")
    (fun () ->
      ignore (Covert.run_row ~bits:0 Covert.Set_conflict Spec.paper_sa))

(* --- Mitigations ---------------------------------------------------------------------- *)

let test_prefetch_blinds_collision () =
  let s = Setup.make ~seed:3 Spec.paper_sa in
  let r =
    Cachesec_attacks.Collision.run ~victim:s.Setup.victim ~rng:s.Setup.rng
      {
        Cachesec_attacks.Collision.default_config with
        Cachesec_attacks.Collision.trials = 3000;
        victim_prefetch = true;
      }
  in
  Alcotest.(check bool) "no recovery" false
    r.Cachesec_attacks.Collision.nibble_recovered;
  (* With everything prefetched every encryption is all-hits: the timing
     bins are exactly constant. *)
  let lo =
    Array.fold_left Float.min infinity r.Cachesec_attacks.Collision.avg_times
  in
  let hi =
    Array.fold_left Float.max neg_infinity r.Cachesec_attacks.Collision.avg_times
  in
  Alcotest.(check (float 1e-9)) "flat timing" lo hi

let test_prefetch_blinds_flush_reload () =
  let s = Setup.make ~seed:3 Spec.paper_sa in
  let r =
    Cachesec_attacks.Flush_reload.run ~victim:s.Setup.victim
      ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
      {
        Cachesec_attacks.Flush_reload.default_config with
        Cachesec_attacks.Flush_reload.trials = 500;
        victim_prefetch = true;
      }
  in
  Alcotest.(check bool) "no recovery" false
    r.Cachesec_attacks.Flush_reload.nibble_recovered;
  (* Every line reads as touched. *)
  Array.iter
    (fun h -> Alcotest.(check (float 1e-9)) "all lines hit" 1. h)
    r.Cachesec_attacks.Flush_reload.line_hit_rate

(* --- Extension report ----------------------------------------------------------- *)

let test_skewed_pas_values () =
  let pas = Extension.skewed_pas () in
  Alcotest.(check (float 1e-9)) "type1" (1. /. 512.)
    (List.assoc "Type 1 evict-and-time" pas);
  Alcotest.(check (float 1e-12)) "type2" (1. /. 512. /. 512.)
    (List.assoc "Type 2 prime-and-probe" pas);
  Alcotest.(check (float 0.)) "type4" 0.
    (List.assoc "Type 4 flush-and-reload" pas)

let test_multi_line_report () =
  let s = Extension.multi_line_report ~lines:3 () in
  Alcotest.(check bool) "renders" true (contains s "3 lines")

let () =
  Alcotest.run "extensions"
    [
      ( "skewed cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_skewed_hit_after_fill;
          Alcotest.test_case "domain isolation" `Quick test_skewed_domain_isolation;
          Alcotest.test_case "per-domain mappings" `Quick test_skewed_mappings_differ;
          Alcotest.test_case "banks skew" `Quick test_skewed_banks_skew;
          Alcotest.test_case "no deterministic conflict" `Quick
            test_skewed_no_deterministic_conflict;
          Alcotest.test_case "flush" `Quick test_skewed_flush;
        ] );
      ( "workload",
        [
          Alcotest.test_case "shapes" `Quick test_workload_shapes;
          Alcotest.test_case "uniform range" `Quick test_workload_uniform_range;
          Alcotest.test_case "zipf skew" `Quick test_workload_zipf_skew;
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "hit rate" `Quick test_workload_hit_rate;
        ] );
      ( "performance",
        [
          Alcotest.test_case "sp capacity cost" `Quick test_performance_capacity_cost;
          Alcotest.test_case "newcache conflict immunity" `Quick
            test_performance_conflict_immunity;
          Alcotest.test_case "table renders" `Quick test_performance_table_renders;
        ] );
      ( "multi-line",
        [
          Alcotest.test_case "reduces to single" `Quick test_multi_reduces_to_single;
          Alcotest.test_case "compounds" `Quick test_multi_compounds;
          prop_multi_monotone;
          Alcotest.test_case "validation" `Quick test_multi_validation;
        ] );
      ( "full key",
        [
          Alcotest.test_case "sa recovers 16/16" `Slow test_full_key_sa;
          Alcotest.test_case "newcache chance level" `Quick
            test_full_key_newcache_chance;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "leaky vs protected" `Slow test_metrics_leaky_vs_protected;
          Alcotest.test_case "render" `Quick test_metrics_render;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "basics" `Quick test_recorder_basic;
          Alcotest.test_case "transparent" `Quick test_recorder_transparent;
        ] );
      ( "svf",
        [
          Alcotest.test_case "leaky vs protected" `Quick test_svf_leaky_vs_protected;
          Alcotest.test_case "render" `Quick test_svf_render;
        ] );
      ( "learning curves",
        [
          Alcotest.test_case "pas orders sample complexity" `Slow
            test_learning_curve_ordering;
          Alcotest.test_case "rejects seeds <= 0" `Quick
            test_learning_curve_seeds_positive;
        ] );
      ( "covert channels",
        [
          Alcotest.test_case "set conflict" `Slow test_covert_set_conflict;
          Alcotest.test_case "occupancy universal" `Slow
            test_covert_occupancy_universal;
          Alcotest.test_case "validation" `Quick test_covert_validation;
        ] );
      ( "mitigations",
        [
          Alcotest.test_case "prefetch blinds collision" `Quick
            test_prefetch_blinds_collision;
          Alcotest.test_case "prefetch blinds flush-reload" `Quick
            test_prefetch_blinds_flush_reload;
        ] );
      ( "extension report",
        [
          Alcotest.test_case "skewed pas" `Quick test_skewed_pas_values;
          Alcotest.test_case "multi-line report" `Quick test_multi_line_report;
        ] );
    ]
