(* Benchmark & reproduction harness.

   Default run regenerates every table and figure of the paper's
   evaluation (Tables 3, 5, 6, 7; Figures 4, 8, 9, 10), the pre-PAS
   Monte-Carlo cross-check, the validation matrix and the ablation
   sweeps, exports the data as CSV under results/, and finishes with
   Bechamel micro-benchmarks (one Test per table/figure plus simulator
   throughput).

   Flags: --quick (reduced trial counts), --no-perf (skip Bechamel),
   --no-sim (analytical sections only), --jobs N (shard the Monte-Carlo
   sections over N domains; 0 = one per core; results are identical for
   any N), --progress (human-readable telemetry on stderr), --metrics
   PATH (telemetry/v1 JSON written at exit). The context flags are the
   same Cmdliner term pas_tool uses ({!Cachesec_runtime.Run.of_cmdline}). *)

open Cachesec_experiments
open Cachesec_runtime
open Cachesec_telemetry
open Cachesec_bench

(* Each section body is a thunk so the harness can report the
   wall-clock spent inside it (the interesting number when comparing
   --jobs settings: the rendered output itself never changes). With an
   active telemetry context, [Scheduler.timed] additionally brackets the
   section in a span named after it and reports the span id, so the
   console output can be cross-referenced against TELEMETRY_*.json. *)
let section (ctx : Run.ctx) title body =
  Printf.printf "\n================================================================\n";
  Printf.printf "== %s\n" title;
  Printf.printf "================================================================\n%!";
  let text, t =
    Scheduler.timed ?jobs:ctx.Run.jobs ~tm:ctx.Run.telemetry ~name:title
      (fun () -> body ())
  in
  print_string text;
  print_newline ();
  Printf.printf "-- section wall-clock: %.2f s (jobs=%d%s)\n%!"
    t.Scheduler.wall_s t.Scheduler.jobs
    (if t.Scheduler.span_id = 0 then ""
     else Printf.sprintf ", telemetry span %d" t.Scheduler.span_id)

(* mkdir -p for every export target, once, before any writer runs. *)
let ensure_results_dirs () =
  let mkdir_p path =
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  in
  mkdir_p "results";
  mkdir_p "results/dot"

let export_csvs cells =
  let open Cachesec_report in
  ensure_results_dirs ();
  Csv.write ~path:"results/table6_pas.csv"
    ~header:[ "arch"; "attack"; "pas_computed"; "pas_paper" ]
    ~rows:(Tables.table6_csv_rows ());
  let ks = List.init 25 (fun i -> i * 5) in
  let fig8 = Figures.figure8_series ~ks in
  Csv.write ~path:"results/figure8_prepas.csv"
    ~header:[ "series"; "k"; "prepas" ]
    ~rows:
      (List.concat_map
         (fun (name, pts) ->
           List.map
             (fun (k, p) -> [ name; string_of_int k; Printf.sprintf "%.6g" p ])
             pts)
         fig8);
  List.iter
    (fun (name, header, rows) ->
      Csv.write ~path:(Printf.sprintf "results/%s.csv" name) ~header ~rows)
    (Sweeps.csv_rows ());
  (* SVG renderings of the analytical figures. *)
  let sigmas = List.init 31 (fun i -> float_of_int i /. 10.) in
  Svg.write ~path:"results/figure4.svg"
    (Svg.line_chart ~title:"Figure 4: p5 vs sigma" ~x_label:"sigma"
       ~y_label:"p5" ~y_min:0.5 ~y_max:1.0
       [
         {
           Plot.name = "p5 = Phi(1/(2 sigma))";
           points = Cachesec_analysis.Noise.figure4_series ~sigmas;
         };
       ]);
  let ks = List.init 25 (fun i -> i * 5) in
  Svg.write ~path:"results/figure8.svg"
    (Svg.line_chart ~title:"Figure 8: pre-PAS vs attacker accesses"
       ~x_label:"k" ~y_label:"pre-PAS" ~y_min:0. ~y_max:1.
       (List.map
          (fun (name, pts) ->
            {
              Plot.name;
              points = List.map (fun (k, p) -> (float_of_int k, p)) pts;
            })
          (Figures.figure8_series ~ks)));
  let sigmas = List.init 31 (fun i -> float_of_int i /. 10.) in
  Csv.write ~path:"results/figure4_noise.csv" ~header:[ "sigma"; "p5" ]
    ~rows:
      (List.map
         (fun (s, p) -> [ Printf.sprintf "%g" s; Printf.sprintf "%.6g" p ])
         (Cachesec_analysis.Noise.figure4_series ~sigmas));
  (match cells with
  | None -> ()
  | Some cells ->
    Csv.write ~path:"results/validation_matrix.csv"
      ~header:
        [ "arch"; "attack"; "pas"; "predicted_leak"; "recovered"; "separation" ]
      ~rows:
        (List.map
           (fun (c : Validation.cell) ->
             [
               c.arch;
               Cachesec_analysis.Attack_type.name c.attack;
               Printf.sprintf "%.6g" c.pas;
               string_of_bool c.predicted_leak;
               string_of_bool c.recovered;
               Printf.sprintf "%.3f" c.separation;
             ])
           cells));
  (* The 36 attack-model PIFGs as Graphviz DOT artefacts. *)
  List.iter
    (fun attack ->
      List.iter
        (fun spec ->
          let g = Cachesec_analysis.Attack_models.build attack spec () in
          let name =
            Printf.sprintf "%s-%s"
              (Cachesec_cache.Spec.name spec)
              (Cachesec_analysis.Attack_type.name attack)
          in
          let doc = Cachesec_core.Dot.to_string ~name g in
          let path = Printf.sprintf "results/dot/%s.dot" name in
          let oc = open_out path in
          output_string oc doc;
          close_out oc)
        Cachesec_cache.Spec.all_paper)
    Cachesec_analysis.Attack_type.all;
  Printf.printf "CSV, SVG and DOT exports written under results/\n%!"

(* --- Bechamel micro-benchmarks ------------------------------------- *)

let perf_tests () =
  let open Bechamel in
  let open Cachesec_stats in
  let open Cachesec_cache in
  let open Cachesec_attacks in
  let open Cachesec_analysis in
  let table_tests =
    [
      Test.make ~name:"table3-evict-time"
        (Staged.stage (fun () -> ignore (Pas_tables.table3 ())));
      Test.make ~name:"table5-collision"
        (Staged.stage (fun () -> ignore (Pas_tables.table5 ())));
      Test.make ~name:"table6-all-attacks"
        (Staged.stage (fun () -> ignore (Pas_tables.table6 ())));
      Test.make ~name:"table7-resilience"
        (Staged.stage (fun () -> ignore (Resilience.table7 ())));
      Test.make ~name:"figure4-noise-curve"
        (Staged.stage (fun () ->
             ignore
               (Noise.figure4_series
                  ~sigmas:(List.init 31 (fun i -> float_of_int i /. 10.)))));
      Test.make ~name:"figure8-prepas-curves"
        (Staged.stage (fun () ->
             ignore (Figures.figure8_series ~ks:(List.init 25 (fun i -> i * 5)))));
    ]
  in
  (* One representative trial of each validation figure's inner loop. *)
  let sim_tests =
    let s9 = Setup.make Spec.paper_sa in
    let p9 = Bytes.create 16 in
    let fig9_trial () =
      Victim.warm_tables s9.Setup.victim;
      Attacker.evict_set s9.Setup.engine ~pid:s9.Setup.attacker_pid 3;
      Victim.random_plaintext_into s9.Setup.rng p9;
      ignore (Victim.encrypt_misses s9.Setup.victim p9)
    in
    let s10 = Setup.make Spec.paper_sa in
    let plan10 =
      Probe_plan.make s10.Setup.engine ~pid:s10.Setup.attacker_pid
    in
    let p10 = Bytes.create 16 in
    let fig10_trial () =
      Probe_plan.prime_all plan10;
      Victim.random_plaintext_into s10.Setup.rng p10;
      Victim.encrypt_quiet_fast s10.Setup.victim p10;
      Probe_plan.probe_all plan10 s10.Setup.rng
    in
    [
      Test.make ~name:"figure9-evict-time-trial" (Staged.stage fig9_trial);
      Test.make ~name:"figure10-prime-probe-trial" (Staged.stage fig10_trial);
    ]
  in
  let arch_tests =
    List.map
      (fun spec ->
        let s = Setup.make spec in
        let rng = Rng.create ~seed:99 in
        let counter = ref 0 in
        Test.make
          ~name:(Printf.sprintf "access-%s" (Spec.name spec))
          (Staged.stage (fun () ->
               incr counter;
               ignore
                 (s.Setup.engine.Engine.access ~pid:(!counter land 1)
                    (Rng.int rng 4096)))))
      Spec.all_paper
  in
  let crypto_tests =
    let key = Cachesec_crypto.Aes.key_of_hex Setup.default_key_hex in
    let block = Bytes.make 16 '\042' in
    [
      Test.make ~name:"aes-encrypt-block"
        (Staged.stage (fun () -> ignore (Cachesec_crypto.Aes.encrypt key block)));
      Test.make ~name:"aes-encrypt-traced"
        (Staged.stage (fun () ->
             ignore (Cachesec_crypto.Aes.encrypt_traced key block)));
    ]
  in
  Test.make_grouped ~name:"cachesec"
    (table_tests @ sim_tests @ arch_tests @ crypto_tests)

let run_perf ~quick () =
  let open Bechamel in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000
        ~quota:(Time.second (if quick then 0.2 else 0.5))
        ~stabilize:true ()
    in
    let raw = Benchmark.all cfg instances (perf_tests ()) in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  let clock = Toolkit.Instance.monotonic_clock in
  let tbl = Hashtbl.find results (Measure.label clock) in
  let entries =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, est) :: acc)
      tbl []
    |> List.sort compare
  in
  Printf.printf "%-45s %15s\n" "benchmark" "ns/run";
  List.iter
    (fun (name, est) -> Printf.printf "%-45s %15.1f\n" name est)
    entries

(* Historical section seeds, frozen so the harness output stays directly
   comparable across checkouts (they predate the shared --seed flag and
   are deliberately not overridden by it). *)
let crosscheck_seed = 7
let learning_curves_seed = 61
let mitigation_seed = 67
let llc_seed = 37

let main perf sim (ctx : Run.ctx) =
  let quick = ctx.Run.quick in
  let section title body = section ctx title body in
  Printf.printf
    "cachesec reproduction harness - He & Lee, 'How secure is your cache \
     against side-channel attacks?', MICRO-50 (2017)\n";
  section "Table 3 (Type 1 edge probabilities and PAS)" (fun () ->
      Tables.table3 ());
  section "Table 5 (Type 3 edge probabilities and PAS)" (fun () ->
      Tables.table5 ());
  section "Table 6 (PAS of 4 attack types x 9 caches)" (fun () ->
      Tables.table6 ());
  section "Table 7 (resilience classification)" (fun () -> Tables.table7 ());
  (* Tentpole artefact of the policy-registry work: the full policy x
     attack x architecture resilience table (PAS x the k->infinity
     cleaning limit of each replacement policy, with the absorbed-
     information bits ceiling), written under results/ for the CI
     artifact upload alongside its machine-readable CSV. Analytical --
     closed forms only -- so it runs even under --no-sim. *)
  section "Policy resilience (policy x attack x architecture)" (fun () ->
      let text = Tables.policy_resilience () in
      ensure_results_dirs ();
      let oc = open_out "results/POLICY_resilience.txt" in
      output_string oc text;
      close_out oc;
      Cachesec_report.Csv.write ~path:"results/policy_resilience.csv"
        ~header:
          [ "arch"; "policy"; "attack"; "pas"; "limit"; "effective"; "bits";
            "verdict" ]
        ~rows:(Tables.policy_resilience_csv_rows ());
      text
      ^ "  wrote results/POLICY_resilience.txt and results/policy_resilience.csv\n");
  section "Figure 4 (noise edge probability p5)" (fun () -> Figures.figure4 ());
  section "Figure 8 (pre-PAS, closed forms)" (fun () -> Figures.figure8 ());
  section "Table 6 at an alternative geometry (16 KB, 4-way)" (fun () ->
      Tables.table6_alt_geometry ());
  section "Design-space sweeps (analytical)" (fun () -> Sweeps.render ());
  let cells = ref None in
  if sim then begin
    section "Figure 9 (evict-and-time validation)" (fun () ->
        Figures.render_figure9 ctx);
    section "Figure 10 (prime-and-probe validation)" (fun () ->
        Figures.render_figure10 ctx);
    section "Pre-PAS cross-check (Section 5)" (fun () ->
        Figures.render_prepas_crosscheck (Run.with_seed crosscheck_seed ctx));
    section "Validation matrix (9 caches x 4 attacks)" (fun () ->
        let matrix = Validation.cells ctx in
        cells := Some matrix;
        Validation.render matrix);
    section "Ablations" (fun () -> Ablations.render ctx);
    section "Extension: multi-line evictions" (fun () ->
        Extension.multi_line_report ());
    section "Extension: PAS vs mutual information" (fun () ->
        Metrics.render (Metrics.table ~trials:(Figures.trials_for ctx 2000) ()));
    section "Extension: PAS vs SVF" (fun () ->
        Svf.render (Svf.table ~intervals:(Figures.trials_for ctx 80) ()));
    section "Extension: covert channels" (fun () ->
        Covert.render (Covert.table ~bits:(Figures.trials_for ctx 2000) ()));
    section "Extension: sample complexity (trials to recovery)" (fun () ->
        let curves =
          Learning_curves.curves
            ~seeds:(if quick then 3 else 8)
            (Run.with_seed learning_curves_seed ctx)
        in
        Cachesec_report.Csv.write ~path:"results/learning_curves.csv"
          ~header:[ "arch"; "pas_type4"; "trials"; "recovery_rate" ]
          ~rows:(Learning_curves.csv_rows curves);
        Learning_curves.render curves);
    section "Performance: victim hit rates" (fun () ->
        Performance.hit_rate_table ~accesses:(Figures.trials_for ctx 60000) ());
    section "Performance: IRM models vs simulator" (fun () ->
        Performance.model_table ~accesses:(Figures.trials_for ctx 120000) ());
    section "Edge-level validation (micro-measured conditionals)" (fun () ->
        Edge_measure.render
          (Edge_measure.table ~samples:(if quick then 4000 else 20000) ()));
    section "Software mitigations (prefetch / prefetch-and-lock)" (fun () ->
        Mitigation.report (Run.with_seed mitigation_seed ctx));
    section "Extension: LLC attack through a two-level hierarchy" (fun () ->
        Llc.report (Run.with_seed llc_seed ctx));
    section "Extension: exponent leak (square-and-multiply victim)" (fun () ->
      let render spec =
         let rng = Cachesec_stats.Rng.create ~seed:8 in
         let scenario =
           { Cachesec_cache.Factory.victim_pid = 0; victim_lines = [ (0, 200) ] }
         in
         let engine =
           Cachesec_cache.Factory.build spec scenario
             ~rng:(Cachesec_stats.Rng.split rng)
         in
         let r =
           Cachesec_attacks.Exp_leak.run ~engine ~victim_pid:0 ~attacker_pid:1
             ~rng:(Cachesec_stats.Rng.split rng) ~exponent:0xcaf1 ()
         in
         Printf.sprintf "  %-12s %s (%d/%d slots)\n"
           (Cachesec_cache.Spec.display_name spec)
           (if r.Cachesec_attacks.Exp_leak.exponent_recovered then
              "exponent RECOVERED"
            else "protected")
           r.Cachesec_attacks.Exp_leak.slots_read
           r.Cachesec_attacks.Exp_leak.total_slots
       in
       String.concat ""
         (List.map render
            Cachesec_cache.Spec.
              [ paper_sa; paper_sp; paper_newcache; paper_rp; paper_rf; paper_noisy ]));
    section "Full-key recovery (flush-and-reload, all 16 bytes)" (fun () ->
       let s = Setup.make Cachesec_cache.Spec.paper_sa in
       let sa =
         Cachesec_attacks.Full_key.flush_reload ~victim:s.Setup.victim
           ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
           ~trials_per_byte:(Figures.trials_for ctx 1000)
       in
       let s2 = Setup.make Cachesec_cache.Spec.paper_newcache in
       let nc =
         Cachesec_attacks.Full_key.flush_reload ~victim:s2.Setup.victim
           ~attacker_pid:s2.Setup.attacker_pid ~rng:s2.Setup.rng
           ~trials_per_byte:(Figures.trials_for ctx 500)
       in
       Printf.sprintf "SA Cache:  %s\nNewcache:  %s\n"
         (Cachesec_attacks.Full_key.render sa)
         (Cachesec_attacks.Full_key.render nc));
    section "Complete 128-bit key (last-round attack + schedule inversion)"
      (fun () ->
       let run spec trials =
         let s = Setup.make spec in
         let r =
           Cachesec_attacks.Last_round.run ~victim:s.Setup.victim
             ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
             { Cachesec_attacks.Last_round.trials = Figures.trials_for ctx trials }
         in
         Printf.sprintf
           "  %-12s round-10 bytes %2d/16, master key guess %s -> %s\n"
           (Cachesec_cache.Spec.display_name spec)
           r.Cachesec_attacks.Last_round.bytes_correct
           r.Cachesec_attacks.Last_round.master_key_guess
           (if r.Cachesec_attacks.Last_round.key_recovered then
              "FULL KEY RECOVERED"
            else "wrong")
       in
       run Cachesec_cache.Spec.paper_sa 3000
       ^ run Cachesec_cache.Spec.paper_newcache 1000)
  end;
  (* The bench suites always run (even under --no-sim / --no-perf): they
     are the perf regression gates. Each writes its results/ file in the
     format of the committed baseline it renders against; the header
     names the telemetry span of the suite's run, cross-referencing
     BENCH_*.json against TELEMETRY_*.json of the same run. *)
  List.iter
    (fun (s : Suite.t) ->
      section s.title (fun () ->
          let o, t =
            Scheduler.timed ?jobs:ctx.Run.jobs ~tm:ctx.Run.telemetry
              ~name:(s.name ^ "-bench")
              (fun () -> s.run ctx)
          in
          ensure_results_dirs ();
          Bench_record.write ~span_id:t.Scheduler.span_id ~schema:s.schema
            ~path:s.results o.rows;
          o.table ^ o.gates
          ^ Printf.sprintf "  wrote %s%s\n" s.results
              (if t.Scheduler.span_id = 0 then ""
               else
                 Printf.sprintf " (telemetry_span %d)" t.Scheduler.span_id)))
    Suite.all;
  section "CSV export" (fun () ->
      export_csvs !cells;
      "");
  if perf then begin
    section "Bechamel micro-benchmarks" (fun () ->
        run_perf ~quick ();
        "")
  end;
  (* Flush any telemetry sinks before process exit (also registered via
     at_exit by Run.of_cmdline; close is idempotent). *)
  Telemetry.close ctx.Run.telemetry

let cmd =
  let open Cmdliner in
  let no_perf =
    Arg.(
      value & flag
      & info [ "no-perf" ] ~doc:"Skip the Bechamel micro-benchmarks.")
  in
  let no_sim =
    Arg.(
      value & flag
      & info [ "no-sim" ] ~doc:"Analytical sections only (skip simulation).")
  in
  let run no_perf no_sim ctx = main (not no_perf) (not no_sim) ctx in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "cachesec reproduction harness: regenerate every table and figure, \
          export CSVs and run the perf regression gate.")
    Term.(const run $ no_perf $ no_sim $ Run.of_cmdline ~run:"bench" ())

let () =
  (* Serve-bench server children re-exec this executable; intercept the
     sentinel argv before Cmdliner parses it. *)
  Serve_bench.child_entry ();
  exit (Cmdliner.Cmd.eval cmd)
