(* pas-tool: compute PAS / pre-PAS, render the paper's tables and
   figures, export attack-model graphs and run simulated attacks.

   The paper's conclusion lists "providing a tool for computing PAS" as
   future work; this is that tool. *)

open Cmdliner
open Cachesec_cache
open Cachesec_analysis
open Cachesec_experiments
open Cachesec_runtime

(* --- shared argument converters ------------------------------------ *)

let spec_conv =
  let parse s =
    match Spec.of_name s with
    | Some spec -> Ok spec
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown cache %S (expected one of: %s)" s
             (String.concat ", " (List.map Spec.name Spec.all_paper))))
  in
  let print ppf spec = Format.pp_print_string ppf (Spec.name spec) in
  Arg.conv (parse, print)

let attack_conv =
  let parse s =
    match Attack_type.of_name s with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown attack %S (expected one of: %s)" s
             (String.concat ", " (List.map Attack_type.name Attack_type.all))))
  in
  let print ppf a = Format.pp_print_string ppf (Attack_type.name a) in
  Arg.conv (parse, print)

(* Count flags (trials, samples, accesses, ...) take a positive integer:
   a zero or negative count is a usage error naming the flag, not an
   exception from deep inside the run. *)
let count_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let cache_arg =
  Arg.(
    required
    & opt (some spec_conv) None
    & info [ "cache"; "c" ] ~docv:"CACHE"
        ~doc:"Cache architecture: sa, sp, pl, nomo, newcache, rp, rf, re, noisy.")

let attack_arg =
  Arg.(
    required
    & opt (some attack_conv) None
    & info [ "attack"; "a" ] ~docv:"ATTACK"
        ~doc:
          "Attack class: evict-and-time, prime-and-probe, cache-collision, \
           flush-and-reload.")

let policy_conv =
  let parse s =
    match Policy.of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown policy %S (expected one of: %s)" s
             (String.concat ", " (List.map Policy.to_string Policy.all))))
  in
  let print ppf p = Format.pp_print_string ppf (Policy.to_string p) in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(
    value
    & opt (some policy_conv) None
    & info [ "policy"; "p" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf
             "Replacement policy: %s. Default: the paper's configuration \
              (random). Newcache keeps its SecRAND replacement regardless."
             Policy.names))

(* Rebind the spec's replacement policy when --policy was given. *)
let apply_policy policy spec =
  match policy with None -> spec | Some p -> Spec.with_policy spec p

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced trial counts.")

(* Commands that fan trials out over the trial runtime share one context
   term: --seed, --quick, --jobs, --progress, --metrics PATH. *)
let ctx_term = Run.of_cmdline ~run:"pas_tool" ()

(* Adaptive (run-to-confidence) stopping knobs, shared by the
   Monte-Carlo commands: --ci-width enables sequential stopping at that
   target half-width; --confidence sets the interval's coverage. *)
let confidence_arg =
  Arg.(
    value & opt float 0.95
    & info [ "confidence" ] ~docv:"C"
        ~doc:
          "Confidence level of the stopping interval (with $(b,--ci-width)).")

let ci_width_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "ci-width" ] ~docv:"W"
        ~doc:
          "Adaptive stopping: end each Monte-Carlo campaign once its \
           estimator's confidence-interval half-width reaches W (absolute \
           for success rates, relative to the mean for timing means) \
           instead of always running the full trial budget. W=0 runs to \
           the budget while measuring the achieved widths.")

(* Build a stopping target for a cleaning-game campaign capped at
   [samples] (mirrors the floor Validation applies to its cells). *)
let cleaning_target ~confidence ~ci_width ~samples =
  Cachesec_stats.Sequential.target ~confidence
    ~min_trials:(max 1 (min 100 samples))
    ~half_width:ci_width ~max_trials:samples ()

(* --- commands ------------------------------------------------------- *)

let tables_cmd =
  let which =
    Arg.(
      value
      & opt (some int) None
      & info [ "table"; "t" ] ~docv:"N" ~doc:"Print only table N (3, 5, 6 or 7).")
  in
  let run which =
    match which with
    | None -> print_string (Tables.all ())
    | Some 3 -> print_string (Tables.table3 ())
    | Some 5 -> print_string (Tables.table5 ())
    | Some 6 -> print_string (Tables.table6 ())
    | Some 7 -> print_string (Tables.table7 ())
    | Some n -> Printf.eprintf "no table %d (have 3, 5, 6, 7)\n" n
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce the paper's Tables 3, 5, 6 and 7.")
    Term.(const run $ which)

let figures_cmd =
  let which =
    Arg.(
      value
      & opt (some int) None
      & info [ "figure"; "f" ] ~docv:"N" ~doc:"Print only figure N (4, 8, 9 or 10).")
  in
  let run which policy (ctx : Run.ctx) =
    let all = which = None in
    if all || which = Some 4 then print_string (Figures.figure4 ());
    if all || which = Some 8 then print_string (Figures.figure8 ?policy ());
    if all || which = Some 9 then print_string (Figures.render_figure9 ctx);
    if all || which = Some 10 then print_string (Figures.render_figure10 ctx);
    (match which with
    | Some n when not (List.mem n [ 4; 8; 9; 10 ]) ->
      Printf.eprintf "no figure %d (have 4, 8, 9, 10)\n" n
    | _ -> ());
    Cachesec_telemetry.Telemetry.close ctx.Run.telemetry
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce the paper's Figures 4, 8, 9 and 10.")
    Term.(const run $ which $ policy_arg $ ctx_term)

let pas_cmd =
  let run spec attack =
    let edges = Edge_probs.for_attack attack spec () in
    let g = Attack_models.build attack spec () in
    Printf.printf "%s under %s\n\n" (Spec.display_name spec)
      (Attack_type.name attack);
    List.iter
      (fun (e : Edge_probs.edge) ->
        Printf.printf "  %-4s = %-8s %s\n" e.label
          (Cachesec_report.Table.fmt_prob e.prob)
          e.meaning)
      edges;
    Printf.printf "\n  PAS = %s (product over the security-critical path)\n"
      (Cachesec_report.Table.fmt_prob (Cachesec_core.Pas.pas g));
    Printf.printf "  resilience: %s\n"
      (Resilience.verdict_to_string (Resilience.classify spec attack))
  in
  Cmd.v
    (Cmd.info "pas"
       ~doc:"Edge probabilities and PAS for one cache under one attack.")
    Term.(const run $ cache_arg $ attack_arg)

let dot_cmd =
  let run spec attack =
    let g = Attack_models.build attack spec () in
    print_string
      (Cachesec_core.Dot.to_string
         ~name:(Printf.sprintf "%s-%s" (Spec.name spec) (Attack_type.name attack))
         g)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the attack's PIFG as Graphviz DOT.")
    Term.(const run $ cache_arg $ attack_arg)

let prepas_cmd =
  let k_arg =
    Arg.(
      value & opt int 32
      & info [ "k" ] ~docv:"K" ~doc:"Number of attacker memory accesses.")
  in
  let mc_arg =
    Arg.(
      value & flag
      & info [ "monte-carlo" ] ~doc:"Also run the Monte-Carlo cleaning game.")
  in
  let samples_arg =
    Arg.(
      value & opt count_conv 2000
      & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo sample count.")
  in
  let run spec policy k mc samples confidence ci_width seed =
    let spec = apply_policy policy spec in
    Printf.printf "pre-PAS(%s%s, k=%d) = %s (closed form, paper Section 5)\n"
      (Spec.name spec)
      (match Spec.policy_of spec with
      | Some p -> "/" ^ Policy.to_string p
      | None -> "")
      k
      (Cachesec_report.Table.fmt_prob (Prepas.for_spec spec ~k));
    if mc then begin
      match ci_width with
      | None ->
        let rng = Cachesec_stats.Rng.create ~seed in
        Printf.printf "Monte-Carlo estimate (%d samples) = %s\n" samples
          (Cachesec_report.Table.fmt_prob
             (Cachesec_attacks.Cleaner.monte_carlo spec ~accesses:k ~samples
                ~rng))
      | Some w ->
        let ctx = { Run.default with Run.seed } in
        let target = cleaning_target ~confidence ~ci_width:w ~samples in
        let a =
          Driver.await
            (Driver.submit_cleaning_game_adaptive ctx spec ~accesses:k ~target)
        in
        Printf.printf
          "Monte-Carlo estimate (adaptive, %d of %d samples%s) = %s (ci \
           half-width %.4g @ %.0f%%)\n"
          a.Driver.trials a.Driver.cap
          (if a.Driver.stopped_early then ", stopped early" else "")
          (Cachesec_report.Table.fmt_prob a.Driver.value)
          a.Driver.achieved (100. *. confidence)
    end
  in
  Cmd.v
    (Cmd.info "prepas"
       ~doc:"Cache-cleaning success probability (pre-PAS) for one cache.")
    Term.(
      const run $ cache_arg $ policy_arg $ k_arg $ mc_arg $ samples_arg
      $ confidence_arg $ ci_width_arg $ seed_arg)

let simulate_cmd =
  let trials_arg =
    Arg.(
      value
      & opt (some count_conv) None
      & info [ "trials" ] ~docv:"N" ~doc:"Override the attack's trial count.")
  in
  (* Trials fan out over the Driver's batch plan, so --jobs shards the
     campaign over domains without changing the verdict. *)
  let run spec policy attack trials (ctx : Run.ctx) =
    let spec = apply_policy policy spec in
    let lock = match spec with Spec.Pl _ -> true | _ -> false in
    let report recovered best true_v separation =
      Printf.printf
        "%s vs %s: %s\n  winner 0x%02x, true 0x%02x, z = %.2f\n"
        (Attack_type.name attack) (Spec.display_name spec)
        (if recovered then "key nibble RECOVERED (cache leaks)"
         else "key nibble NOT recovered")
        best true_v separation
    in
    match attack with
    | Attack_type.Evict_and_time ->
      let open Cachesec_attacks in
      let cfg =
        {
          Evict_time.default_config with
          Evict_time.trials =
            Option.value trials ~default:Evict_time.default_config.Evict_time.trials;
          lock_victim_tables = lock;
        }
      in
      let r = Driver.await (Driver.submit_evict_time ctx spec cfg) in
      report r.Evict_time.nibble_recovered r.Evict_time.best_candidate
        r.Evict_time.true_byte r.Evict_time.separation
    | Attack_type.Prime_and_probe ->
      let open Cachesec_attacks in
      let cfg =
        {
          Prime_probe.default_config with
          Prime_probe.trials =
            Option.value trials
              ~default:Prime_probe.default_config.Prime_probe.trials;
          lock_victim_tables = lock;
        }
      in
      let r = Driver.await (Driver.submit_prime_probe ctx spec cfg) in
      report r.Prime_probe.nibble_recovered r.Prime_probe.best_candidate
        r.Prime_probe.true_byte r.Prime_probe.separation
    | Attack_type.Cache_collision ->
      let open Cachesec_attacks in
      let cfg =
        {
          Collision.default_config with
          Collision.trials =
            Option.value trials ~default:Collision.default_config.Collision.trials;
        }
      in
      let r = Driver.await (Driver.submit_collision ctx spec cfg) in
      report r.Collision.nibble_recovered r.Collision.best_delta
        r.Collision.true_delta r.Collision.separation
    | Attack_type.Flush_and_reload ->
      let open Cachesec_attacks in
      let cfg =
        {
          Flush_reload.default_config with
          Flush_reload.trials =
            Option.value trials
              ~default:Flush_reload.default_config.Flush_reload.trials;
        }
      in
      let r = Driver.await (Driver.submit_flush_reload ctx spec cfg) in
      report r.Flush_reload.nibble_recovered r.Flush_reload.best_candidate
        r.Flush_reload.true_byte r.Flush_reload.separation
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run a simulated attack against a cache architecture (trials \
          sharded over --jobs domains).")
    Term.(
      const run $ cache_arg $ policy_arg $ attack_arg $ trials_arg $ ctx_term)

let validate_cmd =
  let run policy confidence ci_width (ctx : Run.ctx) =
    let adaptive =
      Option.map
        (fun w -> { Validation.confidence; ci_width = w })
        ci_width
    in
    print_string (Validation.render (Validation.cells ?policy ?adaptive ctx));
    Cachesec_telemetry.Telemetry.close ctx.Run.telemetry
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Run the full 9-cache x 4-attack validation matrix (optionally \
          under a non-default replacement policy; with $(b,--ci-width), \
          each cell stops at the target confidence instead of running its \
          full trial budget).")
    Term.(const run $ policy_arg $ confidence_arg $ ci_width_arg $ ctx_term)

let policy_matrix_cmd =
  let cache_opt_arg =
    Arg.(
      value
      & opt (some spec_conv) None
      & info [ "cache"; "c" ] ~docv:"CACHE"
          ~doc:"Restrict the table to one architecture.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"T"
          ~doc:"Resilience threshold on the effective PAS (default 0.01).")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:
            "Emit machine-readable rows (arch, policy, attack, pas, limit, \
             effective, bits, verdict) instead of the table.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Cross-check each policy's closed-form cleaning probability \
             against the Monte-Carlo cleaning game on the SA cache.")
  in
  let samples_arg =
    Arg.(
      value & opt count_conv 2000
      & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo sample count for --check.")
  in
  let run cache policy threshold csv check samples confidence ci_width seed =
    let specs = Option.map (fun s -> [ s ]) cache in
    let policies = Option.map (fun p -> [ p ]) policy in
    if csv then
      List.iter
        (fun row -> print_endline (String.concat "," row))
        (Tables.policy_resilience_csv_rows ())
    else print_string (Tables.policy_resilience ?threshold ?specs ?policies ());
    if check then begin
      let ways =
        match Spec.paper_sa with Spec.Sa { ways; _ } -> ways | _ -> 8
      in
      let checked_policies =
        match policy with Some p -> [ p ] | None -> Policy.all
      in
      let ks = [ ways - 1; ways; 4 * ways ] in
      match ci_width with
      | None ->
        Printf.printf
          "\nClosed form vs Monte-Carlo cleaning game (SA %d-way, %d \
           samples):\n"
          ways samples;
        Printf.printf "  %-8s %6s %12s %12s %s\n" "policy" "k" "closed" "mc"
          "agree";
        List.iter
          (fun p ->
            let spec = Spec.with_policy Spec.paper_sa p in
            List.iter
              (fun k ->
                let closed = Prepas.for_spec spec ~k in
                let rng = Cachesec_stats.Rng.create ~seed in
                let mc =
                  Cachesec_attacks.Cleaner.monte_carlo spec ~accesses:k
                    ~samples ~rng
                in
                Printf.printf "  %-8s %6d %12.4f %12.4f %s\n"
                  (Policy.to_string p) k closed mc
                  (if Float.abs (closed -. mc) < 0.05 then "yes" else "NO"))
              ks)
          checked_policies
      | Some w ->
        (* Run-to-confidence cross-check: each cleaning game stops once
           the win rate's Wilson half-width reaches the target, capped
           at --samples. *)
        let ctx = { Run.default with Run.seed } in
        let target = cleaning_target ~confidence ~ci_width:w ~samples in
        Printf.printf
          "\nClosed form vs adaptive Monte-Carlo cleaning game (SA %d-way, \
           cap %d, ci %.4g @ %.0f%%):\n"
          ways samples w (100. *. confidence);
        Printf.printf "  %-8s %6s %12s %12s %12s %s\n" "policy" "k" "closed"
          "mc" "trials" "agree";
        let total = ref 0 and caps = ref 0 in
        List.iter
          (fun p ->
            let spec = Spec.with_policy Spec.paper_sa p in
            List.iter
              (fun k ->
                let closed = Prepas.for_spec spec ~k in
                let a =
                  Driver.await
                    (Driver.submit_cleaning_game_adaptive ctx spec ~accesses:k
                       ~target)
                in
                total := !total + a.Driver.trials;
                caps := !caps + a.Driver.cap;
                Printf.printf "  %-8s %6d %12.4f %12.4f %12d %s\n"
                  (Policy.to_string p) k closed a.Driver.value a.Driver.trials
                  (if Float.abs (closed -. a.Driver.value) < 0.05 then "yes"
                   else "NO"))
              ks)
          checked_policies;
        Printf.printf "  adaptive: %d of %d trials (%.1fx saved)\n" !total
          !caps
          (float_of_int !caps /. Float.max 1. (float_of_int !total))
    end
  in
  Cmd.v
    (Cmd.info "policy-matrix"
       ~doc:
         "The policy x attack x architecture resilience table: effective \
          PAS (gated by the k->inf cleaning limit for miss-based attacks), \
          absorbed-information leakage bound and verdict for every \
          replacement policy.")
    Term.(
      const run $ cache_opt_arg $ policy_arg $ threshold_arg $ csv_arg
      $ check_arg $ samples_arg $ confidence_arg $ ci_width_arg $ seed_arg)

let perf_cmd =
  let accesses =
    Arg.(
      value & opt count_conv 60000
      & info [ "accesses" ] ~docv:"N" ~doc:"Accesses per workload.")
  in
  let run accesses seed =
    print_string (Performance.hit_rate_table ~seed ~accesses ())
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Victim hit rates per architecture under synthetic workloads.")
    Term.(const run $ accesses $ seed_arg)

let metrics_cmd =
  let trials =
    Arg.(
      value & opt count_conv 1500
      & info [ "trials" ] ~docv:"N" ~doc:"Observations per architecture.")
  in
  let run trials seed =
    print_string (Metrics.render (Metrics.table ~seed ~trials ()))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Compare PAS with a measured mutual-information leakage estimate.")
    Term.(const run $ trials $ seed_arg)

let covert_cmd =
  let bits =
    Arg.(
      value & opt count_conv 2000
      & info [ "bits" ] ~docv:"N" ~doc:"Symbols per architecture and protocol.")
  in
  let run bits seed =
    print_string (Covert.render (Covert.table ~seed ~bits ()))
  in
  Cmd.v
    (Cmd.info "covert"
       ~doc:
         "Covert-channel capacity (set-conflict and occupancy protocols) \
          per architecture.")
    Term.(const run $ bits $ seed_arg)

let svf_cmd =
  let intervals =
    Arg.(
      value & opt count_conv 80
      & info [ "intervals" ] ~docv:"N" ~doc:"Execution intervals per architecture.")
  in
  let run intervals seed =
    print_string (Svf.render (Svf.table ~seed ~intervals ()))
  in
  Cmd.v
    (Cmd.info "svf"
       ~doc:"Compare PAS with a simplified side-channel vulnerability factor.")
    Term.(const run $ intervals $ seed_arg)

let multi_cmd =
  let lines_arg =
    Arg.(
      value & opt count_conv 4
      & info [ "lines" ] ~docv:"M" ~doc:"Victim lines the attack must evict.")
  in
  let run lines = print_string (Extension.multi_line_report ~lines ()) in
  Cmd.v
    (Cmd.info "multi"
       ~doc:"Multi-line eviction PAS (the paper's Table 6 closing note).")
    Term.(const run $ lines_arg)

let fullkey_cmd =
  let trials =
    Arg.(
      value & opt count_conv 1000
      & info [ "trials" ] ~docv:"N" ~doc:"Flush-reload trials per key byte.")
  in
  let run spec trials seed =
    let s = Setup.make ~seed spec in
    let r =
      Cachesec_attacks.Full_key.flush_reload ~victim:s.Setup.victim
        ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
        ~trials_per_byte:trials
    in
    Printf.printf "%s vs flush-and-reload, %d trials/byte:\n  %s\n"
      (Spec.display_name spec) trials
      (Cachesec_attacks.Full_key.render r)
  in
  Cmd.v
    (Cmd.info "fullkey"
       ~doc:"Recover all 16 AES key-byte high nibbles via flush-and-reload.")
    Term.(const run $ cache_arg $ trials $ seed_arg)

let lastround_cmd =
  let trials =
    Arg.(
      value & opt count_conv 3000
      & info [ "trials" ] ~docv:"N" ~doc:"Shared trials for all 16 bytes.")
  in
  let run spec trials seed =
    let s = Setup.make ~seed spec in
    let r =
      Cachesec_attacks.Last_round.run ~victim:s.Setup.victim
        ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
        { Cachesec_attacks.Last_round.trials }
    in
    Printf.printf
      "%s, last-round attack, %d trials:\n\
      \  round-10 key bytes correct: %d/16\n\
      \  master key guess: %s%s\n"
      (Spec.display_name spec) trials
      r.Cachesec_attacks.Last_round.bytes_correct
      r.Cachesec_attacks.Last_round.master_key_guess
      (if r.Cachesec_attacks.Last_round.key_recovered then
         "  <- FULL 128-BIT KEY RECOVERED"
       else "  (wrong)")
  in
  Cmd.v
    (Cmd.info "lastround"
       ~doc:
         "Recover the complete AES-128 master key via the last-round \
          flush-and-reload attack and key-schedule inversion.")
    Term.(const run $ cache_arg $ trials $ seed_arg)

let expleak_cmd =
  let exponent =
    Arg.(
      value & opt int 0xcaf1
      & info [ "exponent" ] ~docv:"E" ~doc:"Secret exponent to leak.")
  in
  let run spec exponent seed =
    let rng = Cachesec_stats.Rng.create ~seed in
    let scenario =
      { Factory.victim_pid = 0; victim_lines = [ (0, 200) ] }
    in
    let engine = Factory.build spec scenario ~rng:(Cachesec_stats.Rng.split rng) in
    let r =
      Cachesec_attacks.Exp_leak.run ~engine ~victim_pid:0 ~attacker_pid:1
        ~rng:(Cachesec_stats.Rng.split rng) ~exponent ()
    in
    Printf.printf "%s: %s (%d/%d slots readable)\n" (Spec.display_name spec)
      (match r.Cachesec_attacks.Exp_leak.exponent_guess with
      | Some e when r.Cachesec_attacks.Exp_leak.exponent_recovered ->
        Printf.sprintf "exponent RECOVERED: 0x%x" e
      | Some e -> Printf.sprintf "wrong guess 0x%x" e
      | None -> "no recovery")
      r.Cachesec_attacks.Exp_leak.slots_read
      r.Cachesec_attacks.Exp_leak.total_slots
  in
  Cmd.v
    (Cmd.info "expleak"
       ~doc:
         "Leak a square-and-multiply exponent via flush-and-reload on the \
          routine code lines.")
    Term.(const run $ cache_arg $ exponent $ seed_arg)

let mitigation_cmd =
  let run quick seed =
    print_string (Mitigation.report (Run.make ~quick ~seed ()))
  in
  Cmd.v
    (Cmd.info "mitigation"
       ~doc:"Software mitigations: prefetch vs prefetch-and-lock outcomes.")
    Term.(const run $ quick_arg $ seed_arg)

let llc_cmd =
  let run quick seed =
    print_string (Llc.report (Run.make ~quick ~seed ()))
  in
  Cmd.v
    (Cmd.info "llc"
       ~doc:"Cross-core flush-and-reload through a two-level hierarchy.")
    Term.(const run $ quick_arg $ seed_arg)

(* --- PAS-as-a-service: the query server and its client ------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "pas-tool.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (OS limit ~107 bytes).")

let serve_cmd =
  let queue_bound_arg =
    Arg.(
      value
      & opt int Cachesec_serve.Server.default_queue_bound
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Maximum simulation campaigns queued awaiting a worker before \
             new queries are refused with an 'overloaded' reply. 0 refuses \
             every simulation (serve closed forms and memo only).")
  in
  let max_memo_arg =
    Arg.(
      value & opt int 65536
      & info [ "max-memo" ] ~docv:"N"
          ~doc:"Answer-cache entry bound (FIFO eviction beyond it).")
  in
  let inline_arg =
    Arg.(
      value & flag
      & info [ "inline" ]
          ~doc:
            "Run simulation campaigns synchronously in the server's own \
             domain instead of pool workers (single-client/test mode; \
             ignores --jobs and --queue-bound).")
  in
  let run socket queue_bound max_memo inline (ctx : Run.ctx) =
    let execution =
      if inline then Cachesec_serve.Server.Inline
      else
        let j = Scheduler.resolve_jobs ctx.Run.jobs in
        Cachesec_serve.Server.Pooled
          { workers = (if j <= 1 then 0 else j); queue_bound }
    in
    match
      Cachesec_serve.Server.run ~telemetry:ctx.Run.telemetry
        { Cachesec_serve.Server.socket; execution; max_memo }
    with
    | Ok () -> `Ok ()
    | Error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the PAS query server: a daemon answering pas/prepas/\
          resilience/table queries from a memo cache (microseconds when \
          warm) and validate queries through the simulation pool, with \
          in-flight deduplication and backpressure. Stop it with a \
          'shutdown' query or SIGINT.")
    Term.(
      ret
        (const run $ socket_arg $ queue_bound_arg $ max_memo_arg $ inline_arg
       $ ctx_term))

let query_cmd =
  let lines_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"QUERY"
          ~doc:
            "Query lines, e.g. 'pas cache=sa attack=prime-and-probe', \
             'table attack=cache-collision', 'validate cache=rp \
             attack=flush-and-reload seed=7', 'stats', 'shutdown'. All \
             lines are sent as one frame; replies print in query order.")
  in
  let run socket lines =
    match
      Cachesec_serve.Client.with_connection socket (fun c ->
          Cachesec_serve.Client.round_trip_raw c lines)
    with
    | replies ->
      List.iter print_endline replies;
      `Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      `Error (false, Printf.sprintf "%s: %s" socket (Unix.error_message e))
    | exception Failure msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send query lines to a running PAS query server and print the \
          replies (one per query line, in order).")
    Term.(ret (const run $ socket_arg $ lines_arg))

let main =
  let doc = "PIFG/PAS cache side-channel security quantification (MICRO-50 2017)" in
  Cmd.group
    (Cmd.info "pas-tool" ~version:"1.0.0" ~doc)
    [
      tables_cmd; figures_cmd; pas_cmd; dot_cmd; prepas_cmd; simulate_cmd;
      validate_cmd; policy_matrix_cmd; perf_cmd; metrics_cmd; svf_cmd;
      covert_cmd; multi_cmd;
      fullkey_cmd; lastround_cmd; expleak_cmd; llc_cmd; mitigation_cmd;
      serve_cmd; query_cmd;
    ]

let () = exit (Cmd.eval main)
