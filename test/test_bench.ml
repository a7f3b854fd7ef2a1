(* The bench suites (bench/): the one record format of their files, the
   tables they render and the gate lines CI greps, over the committed
   bench files and synthetic entries. *)

open Cachesec_bench
module Br = Bench_record
module Sb = Serve_bench
module Summary = Cachesec_stats.Summary

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_close eps = Alcotest.(check (float eps))


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
    Throughput.Attacks.speedups ~seed:attacks_seed
      (load Throughput.Attacks.of_row attacks_base)
    |> List.map (fun (attack, x) ->
           Printf.sprintf "%s %s" attack
             (match x with Some x -> Printf.sprintf "%h" x | None -> "-"))
  in
  Alcotest.(check (list string)) "per-class ratios"
    [ "prime-probe 0x1.25b8df303038fp+1";
      "evict-time 0x1.b43924c35c9eep+0";
      "flush-reload 0x1.8efe43c1a3a97p+0";
      "collision 0x1.9ff02d8d3ee7bp+0" ]
    ratios;
  match
    Throughput.find (load Throughput.of_row cache_seed) ~arch:"sa" ~policy:"lru"
  with
  | Some e ->
    Alcotest.(check string) "sa/lru seed rate" "0x1.11374d3333333p+22"
      (Printf.sprintf "%h" e.Throughput.per_sec)
  | None -> Alcotest.fail "no sa/lru row in the cache seed"

(* Every gate line CI greps, rendered over the committed files (the
   baselines gated against the seeds: what a run as fast as the
   recording host prints), over synthetic entries below each floor, and
   with nothing to compare against. The committed e2e rows are all
   sequential (recorded before pipelining): their jobs-4 rows stand in
   for the pipelined arm of a one-core host. *)
let test_gate_lines () =
  let check name expected got = Alcotest.(check string) name expected got in
  let cache = load Throughput.of_row cache_base in
  let attacks = load Throughput.Attacks.of_row attacks_base in
  let e2e = load Throughput.E2e.of_row e2e_base in
  let adaptive = load Throughput.Adaptive.of_row e2e_base in
  let serve = load Sb.of_row serve_base in
  let e2e_arms ?(jobs = 4) ?(cores = 1) seconds =
    List.map
      (fun (e : Throughput.E2e.entry) ->
        let mode = if e.jobs = 4 then "pipelined" else "sequential" in
        { e with mode; jobs; cores; seconds = seconds mode e.seconds })
      e2e
  in
  check "committed bench_cache"
    "  gate bench_cache  sa/lru speedup  4.05x >= 2.50x PASS\n"
    (Throughput.gate ~seed:cache_seed cache);
  check "committed bench_attacks"
    "  gate bench_attacks prime-probe  min speedup  2.29x >= 1.30x PASS\n\
    \  gate bench_attacks evict-time   min speedup  1.70x >= 1.30x PASS\n\
    \  gate bench_attacks flush-reload min speedup  1.56x (reported)\n\
    \  gate bench_attacks collision    min speedup  1.62x (reported)\n"
    (Throughput.Attacks.gate ~seed:attacks_seed attacks);
  check "committed e2e"
    "  gate e2e          pipelining speedup  0.89x (reported: needs >= 4 \
     cores and >= 4 jobs for a hard gate)\n"
    (Throughput.E2e.gate (e2e_arms (fun _ s -> s)));
  check "committed adaptive"
    "  gate adaptive     trials saved at matched width  6.13x >= 2.00x PASS\n"
    (Throughput.Adaptive.gate adaptive);
  check "committed bench_serve"
    "  gate bench_serve  memo-hit/cold qps ratio   140.7x >= 50.0x PASS\n"
    (Sb.gate serve);
  check "four-core e2e"
    "  gate e2e          pipelining speedup  2.00x >= 1.30x PASS\n"
    (Throughput.E2e.gate
       (e2e_arms ~cores:4 (fun mode _ -> if mode = "pipelined" then 1. else 2.)));
  (* Below each floor: the cache baseline against itself, the attack
     rates halved, equal e2e arms on a four-core host, an adaptive arm
     that spends the fixed arm's trials, a memo as slow as
     recomputation. *)
  check "slow bench_cache"
    "  gate bench_cache  sa/lru speedup  1.00x <  2.50x FAIL\n"
    (Throughput.gate ~seed:cache_base cache);
  check "slow bench_attacks"
    "  gate bench_attacks prime-probe  min speedup  1.15x <  1.30x FAIL\n\
    \  gate bench_attacks evict-time   min speedup  0.85x <  1.30x FAIL\n\
    \  gate bench_attacks flush-reload min speedup  0.78x (reported)\n\
    \  gate bench_attacks collision    min speedup  0.81x (reported)\n"
    (Throughput.Attacks.gate ~seed:attacks_seed
       (List.map
          (fun (e : Throughput.Attacks.entry) ->
            { e with per_sec = e.per_sec /. 2. })
          attacks));
  check "slow e2e"
    "  gate e2e          pipelining speedup  1.00x <  1.30x FAIL\n"
    (Throughput.E2e.gate (e2e_arms ~cores:4 (fun _ _ -> 1.)));
  check "slow adaptive"
    "  gate adaptive     trials saved at matched width  1.00x <  2.00x FAIL\n"
    (Throughput.Adaptive.gate
       (List.map
          (fun (e : Throughput.Adaptive.entry) -> { e with trials = 1000 })
          adaptive));
  check "slow bench_serve"
    "  gate bench_serve  memo-hit/cold qps ratio     1.0x <  50.0x FAIL\n"
    (Sb.gate (List.map (fun (e : Sb.entry) -> { e with qps = 100. }) serve));
  (* Nothing to compare against: an absent seed file, a missing arm or
     mix. *)
  let absent = "no/such/BENCH_file.json" in
  check "no seed bench_cache"
    "  gate bench_cache  no seed baseline row for sa/lru FAIL\n"
    (Throughput.gate ~seed:absent cache);
  check "no seed bench_attacks"
    "  gate bench_attacks prime-probe  no baseline rows FAIL\n\
    \  gate bench_attacks evict-time   no baseline rows FAIL\n\
    \  gate bench_attacks flush-reload no baseline rows (reported)\n\
    \  gate bench_attacks collision    no baseline rows (reported)\n"
    (Throughput.Attacks.gate ~seed:absent attacks);
  check "no arm e2e"
    "  gate e2e          missing arm, no ratio (reported: needs >= 4 cores \
     and >= 4 jobs for a hard gate)\n"
    (Throughput.E2e.gate e2e);
  check "no arm four-core e2e" "  gate e2e          missing arm, no ratio FAIL\n"
    (Throughput.E2e.gate
       (List.map
          (fun (e : Throughput.E2e.entry) -> { e with jobs = 4; cores = 4 })
          e2e));
  check "no arm adaptive" "  gate adaptive     missing arm, no ratio FAIL\n"
    (Throughput.Adaptive.gate
       (List.filter
          (fun (e : Throughput.Adaptive.entry) -> e.arm = "fixed")
          adaptive));
  check "no mix bench_serve" "  gate bench_serve  missing mix, no ratio FAIL\n"
    (Sb.gate (List.filter (fun (e : Sb.entry) -> e.mix <> "cold") serve))

(* --- Stddev conventions ------------------------------------------------ *)

let test_stddev_conventions () =
  (* Two deliberate conventions, pinned so neither drifts into the
     other: Summary.std divides by n-1 (unbiased sample — summaries
     hold samples of a larger trial population and feed inference),
     Throughput.stddev_of divides by n (population — bench error bars
     over the complete set of repetitions). On {2,4}: sample std is
     sqrt 2, population std is exactly 1. *)
  check_close 1e-9 "Summary.std is unbiased sample (n-1)" (sqrt 2.)
    (Summary.std (Summary.of_array [| 2.; 4. |]));
  check_close 1e-9 "Throughput.stddev_of is population (n)" 1.
    (Throughput.stddev_of [ 2.; 4. ]);
  (* Same stream, same mean, different spread estimators. *)
  let xs = [ 10.; 12.; 9.; 14.; 11. ] in
  let sample = Summary.std (Summary.of_array (Array.of_list xs)) in
  let population = Throughput.stddev_of xs in
  Alcotest.(check bool) "population < sample on the same data" true
    (population < sample);
  let n = float_of_int (List.length xs) in
  check_close 1e-9 "related by sqrt((n-1)/n)"
    (sample *. sqrt ((n -. 1.) /. n))
    population

let () =
  Alcotest.run "bench"
    [
      ( "bench_record",
        [
          Alcotest.test_case "round trip" `Quick test_bench_record_round_trip;
          Alcotest.test_case "absent file" `Quick test_bench_record_absent;
          Alcotest.test_case "committed files" `Quick
            test_bench_record_committed;
          Alcotest.test_case "render digests" `Quick
            test_bench_record_render_digests;
          Alcotest.test_case "gates" `Quick test_bench_record_gates;
          Alcotest.test_case "gate lines" `Quick test_gate_lines;
        ] );
      ( "summary",
        [
          Alcotest.test_case "stddev conventions" `Quick
            test_stddev_conventions;
        ] );
    ]
