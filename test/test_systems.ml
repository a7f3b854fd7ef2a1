(* Tests for the composed systems: the two-level hierarchy, the
   square-and-multiply victim, the exponent-leak attack, the LLC demo,
   and generic engine invariants that must hold for every architecture
   (including the skewed extension and the hierarchy composite). *)

open Cachesec_stats
open Cachesec_cache
open Cachesec_crypto
open Cachesec_attacks

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let rng () = Rng.create ~seed:314

let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 200) ] }

(* --- Hierarchy ------------------------------------------------------------ *)

let make_hierarchy ?(l2_spec = Spec.paper_sa) () =
  let r = rng () in
  let l2 = Factory.build l2_spec scenario ~rng:(Rng.split r) in
  Hierarchy.create ~l2 ~rng:(Rng.split r) ()

let test_hierarchy_levels () =
  let h = make_hierarchy () in
  (* Cold: both levels miss -> time 1. *)
  let o1, t1 = Hierarchy.access_timed h ~pid:0 7 in
  Alcotest.(check bool) "cold miss" true (Outcome.is_miss o1);
  Alcotest.(check (float 0.)) "memory latency" 1. t1;
  (* Warm in both: L1 hit -> 0. *)
  let o2, t2 = Hierarchy.access_timed h ~pid:0 7 in
  Alcotest.(check bool) "l1 hit" true (Outcome.is_hit o2);
  Alcotest.(check (float 0.)) "l1 latency" 0. t2;
  (* Another core: misses its own L1, hits the shared L2 (event Hit —
     found in the hierarchy — at the intermediate latency). *)
  let o3, t3 = Hierarchy.access_timed h ~pid:1 7 in
  Alcotest.(check bool) "l2 hit for other core" true (Outcome.is_hit o3);
  Alcotest.(check (float 0.)) "l2 latency" Hierarchy.l2_hit_time t3

let test_hierarchy_private_l1s () =
  let h = make_hierarchy () in
  let e = Hierarchy.engine h in
  ignore (e.Engine.access ~pid:0 7);
  let l1_0 = Hierarchy.l1_for h ~pid:0 in
  let l1_1 = Hierarchy.l1_for h ~pid:1 in
  Alcotest.(check bool) "own l1 holds it" true (l1_0.Engine.peek ~pid:0 7);
  Alcotest.(check bool) "other l1 does not" false (l1_1.Engine.peek ~pid:1 7)

let test_hierarchy_coherent_flush () =
  let h = make_hierarchy () in
  let e = Hierarchy.engine h in
  ignore (e.Engine.access ~pid:0 7);
  (* The attacker's clflush must also purge the victim's private L1. *)
  Alcotest.(check bool) "flush reaches all levels" true
    (e.Engine.flush_line ~pid:1 7);
  let _, t = Hierarchy.access_timed h ~pid:0 7 in
  Alcotest.(check (float 0.)) "victim refetches from memory" 1. t

let test_hierarchy_l1_capacity () =
  let h = make_hierarchy () in
  let e = Hierarchy.engine h in
  (* Stream far past the 64-line L1: early lines age out of L1 but stay
     in the big L2. *)
  for i = 0 to 299 do
    ignore (e.Engine.access ~pid:0 i)
  done;
  let _, t = Hierarchy.access_timed h ~pid:0 0 in
  Alcotest.(check (float 0.)) "l2 catch" Hierarchy.l2_hit_time t

let test_hierarchy_engine_counters () =
  let h = make_hierarchy () in
  let e = Hierarchy.engine h in
  ignore (e.Engine.access ~pid:0 1);
  ignore (e.Engine.access ~pid:0 1);
  let s = Counters.for_pid e.Engine.counters 0 in
  Alcotest.(check int) "accesses" 2 s.Counters.accesses;
  Alcotest.(check int) "hits" 1 s.Counters.hits

(* --- Modexp ----------------------------------------------------------------- *)

let test_modexp_correct () =
  Alcotest.(check int) "3^7 mod 10" 7 (Modexp.modexp ~base:3 ~exponent:7 ~modulus:10);
  Alcotest.(check int) "e=0" 1 (Modexp.modexp ~base:5 ~exponent:0 ~modulus:13);
  Alcotest.(check int) "e=1" 5 (Modexp.modexp ~base:5 ~exponent:1 ~modulus:13);
  Alcotest.(check int) "fermat" 1
    (Modexp.modexp ~base:2 ~exponent:12 ~modulus:13)

let prop_modexp_matches_naive =
  qtest "matches naive exponentiation"
    QCheck.(triple (int_range 0 50) (int_range 0 20) (int_range 2 1000))
    (fun (base, e, m) ->
      let naive =
        let rec go acc n = if n = 0 then acc else go (acc * base mod m) (n - 1) in
        go (1 mod m) e
      in
      Modexp.modexp ~base ~exponent:e ~modulus:m = naive)

let test_modexp_trace () =
  (* exponent 0b1011: ops = S (bit 0 -> no M), S M (bit 1), S M (bit 1). *)
  let r, ops = Modexp.modexp_traced ~base:3 ~exponent:0b1011 ~modulus:1000 in
  Alcotest.(check int) "value" (Modexp.modexp ~base:3 ~exponent:11 ~modulus:1000) r;
  Alcotest.(check (list bool)) "op pattern"
    [ true; true; false; true; false ]
    (Array.to_list (Array.map (fun o -> o = Modexp.Square) ops));
  Alcotest.(check int) "op count" (Modexp.op_count ~exponent:11) (Array.length ops)

let prop_modexp_trace_roundtrip =
  qtest "exponent_of_ops inverts the trace" QCheck.(int_range 2 100000)
    (fun e ->
      let _, ops = Modexp.modexp_traced ~base:7 ~exponent:e ~modulus:9973 in
      Modexp.exponent_of_ops ops = e)

let test_modexp_validation () =
  Alcotest.check_raises "bad modulus"
    (Invalid_argument "Modexp: modulus must lie in [2, 2^31)") (fun () ->
      ignore (Modexp.modexp ~base:2 ~exponent:3 ~modulus:1));
  Alcotest.check_raises "bad op sequence"
    (Invalid_argument "Modexp.exponent_of_ops: Multiply without Square")
    (fun () -> ignore (Modexp.exponent_of_ops [| Modexp.Multiply |]))

(* --- Exponent leak ------------------------------------------------------------ *)

let run_leak spec =
  let r = rng () in
  let engine = Factory.build spec scenario ~rng:(Rng.split r) in
  Exp_leak.run ~engine ~victim_pid:0 ~attacker_pid:1 ~rng:(Rng.split r)
    ~exponent:0b110100101101 ()

let test_exp_leak_sa () =
  let r = run_leak Spec.paper_sa in
  Alcotest.(check bool) "full recovery" true r.Exp_leak.exponent_recovered;
  Alcotest.(check int) "all slots" r.Exp_leak.total_slots r.Exp_leak.slots_read;
  Alcotest.(check (option int)) "guess" (Some 0b110100101101)
    r.Exp_leak.exponent_guess

let test_exp_leak_protected () =
  List.iter
    (fun spec ->
      let r = run_leak spec in
      Alcotest.(check bool) (Spec.name spec ^ " protected") false
        r.Exp_leak.exponent_recovered;
      Alcotest.(check int) (Spec.name spec ^ " blind") 0 r.Exp_leak.slots_read)
    [ Spec.paper_newcache; Spec.paper_rp ]

let test_exp_leak_sp_shared_library () =
  (* Partitioning does not protect a shared library: the paper's Type 4
     'X' for SP. *)
  let r = run_leak Spec.paper_sp in
  Alcotest.(check bool) "sp leaks" true r.Exp_leak.exponent_recovered

let test_exp_leak_noisy_partial () =
  let r = run_leak Spec.paper_noisy in
  Alcotest.(check bool) "partial read" true
    (r.Exp_leak.slots_read > 0
    && r.Exp_leak.slots_read < r.Exp_leak.total_slots)

(* --- LLC demo -------------------------------------------------------------------- *)

let test_llc_sa_leaks () =
  let r = Cachesec_experiments.Llc.run ~trials:600 ~l2_spec:Spec.paper_sa () in
  Alcotest.(check bool) "cross-core leak" true r.Cachesec_experiments.Llc.recovered

let test_llc_newcache_protected () =
  let r =
    Cachesec_experiments.Llc.run ~trials:300 ~l2_spec:Spec.paper_newcache ()
  in
  Alcotest.(check bool) "protected" false r.Cachesec_experiments.Llc.recovered

(* --- Generic engine invariants ----------------------------------------------------- *)

let engines_under_test () =
  let r = rng () in
  List.map
    (fun spec ->
      (Spec.name spec, Factory.build spec scenario ~rng:(Rng.split r)))
    Spec.all_paper
  @ [
      ("skewed", Skewed.engine (Skewed.create ~rng:(Rng.split r) ()));
      ( "hierarchy",
        Hierarchy.engine
          (Hierarchy.create
             ~l2:(Factory.build Spec.paper_sa scenario ~rng:(Rng.split r))
             ~rng:(Rng.split r) ()) );
    ]

let test_engines_counters_coherent () =
  List.iter
    (fun (name, (e : Engine.t)) ->
      let r = rng () in
      for _ = 1 to 2000 do
        ignore (e.Engine.access ~pid:(Rng.int r 2) (Rng.int r 500))
      done;
      let s = Counters.global e.Engine.counters in
      Alcotest.(check int) (name ^ " hits+misses=accesses") s.Counters.accesses
        (s.Counters.hits + s.Counters.misses);
      let s0 = Counters.for_pid e.Engine.counters 0 and s1 = Counters.for_pid e.Engine.counters 1 in
      Alcotest.(check int)
        (name ^ " per-pid sums")
        s.Counters.accesses
        (s0.Counters.accesses + s1.Counters.accesses))
    (engines_under_test ())

let test_engines_peek_matches_next_access () =
  (* For every architecture: if peek says the line is visible to the pid,
     the very next access by that pid is a hit. *)
  List.iter
    (fun (name, (e : Engine.t)) ->
      let r = rng () in
      for _ = 1 to 2000 do
        let pid = Rng.int r 2 and addr = Rng.int r 300 in
        if e.Engine.peek ~pid addr then begin
          if not (Outcome.is_hit (e.Engine.access ~pid addr)) then
            Alcotest.failf "%s: peek=true but access missed (pid %d line %d)"
              name pid addr
        end
        else ignore (e.Engine.access ~pid addr)
      done)
    (engines_under_test ())

let test_engines_flush_then_miss () =
  List.iter
    (fun (name, (e : Engine.t)) ->
      ignore (e.Engine.access ~pid:0 42);
      ignore (e.Engine.flush_line ~pid:0 42);
      Alcotest.(check bool) (name ^ " flushed line gone") false
        (e.Engine.peek ~pid:0 42))
    (engines_under_test ())

let test_engines_deterministic () =
  (* Same seeds, same access pattern -> identical hit/miss sequences. *)
  let trace e =
    let r = Rng.create ~seed:555 in
    List.init 3000 (fun _ ->
        Outcome.is_hit (e.Engine.access ~pid:(Rng.int r 2) (Rng.int r 400)))
  in
  List.iter
    (fun spec ->
      let mk seed =
        Factory.build spec scenario ~rng:(Rng.create ~seed)
      in
      let a = trace (mk 9) and b = trace (mk 9) in
      Alcotest.(check bool) (Spec.name spec ^ " deterministic") true (a = b))
    Spec.all_paper

let test_engines_dump_valid_lines_only () =
  List.iter
    (fun (name, (e : Engine.t)) ->
      let r = rng () in
      for _ = 1 to 500 do
        ignore (e.Engine.access ~pid:(Rng.int r 2) (Rng.int r 100))
      done;
      List.iter
        (fun (_, (l : Line.t)) ->
          if not l.Line.valid then Alcotest.failf "%s dumped invalid line" name)
        (Engine.dump e))
    (engines_under_test ())

(* --- Architecture equivalences ------------------------------------------------------ *)

(* Degenerate parameter settings must reproduce the conventional SA
   cache exactly (same RNG seed, same hit/miss stream): the paper leans
   on several of these equivalences (RF window 0 = SA, RP identity = SA,
   unlocked PL = SA). *)

let hitmiss_stream engine n =
  let r = Rng.create ~seed:808 in
  List.init n (fun _ ->
      Outcome.is_hit (engine.Engine.access ~pid:(Rng.int r 2) (Rng.int r 600)))

let build_with seed spec = Factory.build spec scenario ~rng:(Rng.create ~seed)

let check_equiv name a b =
  Alcotest.(check bool) name true (hitmiss_stream a 4000 = hitmiss_stream b 4000)

let test_equiv_noisy_is_sa () =
  (* The noisy cache differs only in the observation channel. *)
  check_equiv "noisy = sa" (build_with 5 Spec.paper_sa) (build_with 5 Spec.paper_noisy)

let test_equiv_pl_unlocked_is_sa () =
  check_equiv "pl (no locks) = sa" (build_with 6 Spec.paper_sa)
    (build_with 6 Spec.paper_pl)

let test_equiv_rf_window0_is_sa () =
  let rf = Spec.Rf { ways = 8; policy = Policy.Random; back = 0; fwd = 0 } in
  check_equiv "rf window 0 = sa" (build_with 7 Spec.paper_sa) (build_with 7 rf)

let test_equiv_nomo0_is_sa () =
  let nomo = Spec.Nomo { ways = 8; policy = Policy.Random; reserved = 0 } in
  check_equiv "nomo r=0 = sa" (build_with 8 Spec.paper_sa) (build_with 8 nomo)

let test_equiv_re_huge_interval_is_sa () =
  (* An interval beyond the stream length never fires. *)
  let re = Spec.Re { ways = 8; policy = Policy.Random; interval = 1000000 } in
  let sa = Spec.Sa { ways = 8; policy = Policy.Random } in
  check_equiv "re T=inf = sa" (build_with 9 sa) (build_with 9 re)

let test_rp_single_process_like_sa () =
  (* With one process there is no interference, so RP behaves like SA
     statistically; compare hit counts over a workload (the streams
     differ because RP consumes RNG differently). *)
  let count_hits spec =
    let e = build_with 10 spec in
    let r = Rng.create ~seed:909 in
    let hits = ref 0 in
    for _ = 1 to 20000 do
      if Outcome.is_hit (e.Engine.access ~pid:0 (Rng.int r 700)) then incr hits
    done;
    !hits
  in
  let sa = count_hits Spec.paper_sa and rp = count_hits Spec.paper_rp in
  Alcotest.(check bool) "same hit rate within 2%" true
    (abs (sa - rp) < 20000 / 50)

let () =
  Alcotest.run "systems"
    [
      ( "hierarchy",
        [
          Alcotest.test_case "three latencies" `Quick test_hierarchy_levels;
          Alcotest.test_case "private l1s" `Quick test_hierarchy_private_l1s;
          Alcotest.test_case "coherent flush" `Quick test_hierarchy_coherent_flush;
          Alcotest.test_case "l1 capacity" `Quick test_hierarchy_l1_capacity;
          Alcotest.test_case "engine counters" `Quick test_hierarchy_engine_counters;
        ] );
      ( "modexp",
        [
          Alcotest.test_case "known values" `Quick test_modexp_correct;
          prop_modexp_matches_naive;
          Alcotest.test_case "trace" `Quick test_modexp_trace;
          prop_modexp_trace_roundtrip;
          Alcotest.test_case "validation" `Quick test_modexp_validation;
        ] );
      ( "exponent leak",
        [
          Alcotest.test_case "sa full recovery" `Quick test_exp_leak_sa;
          Alcotest.test_case "pid caches blind" `Quick test_exp_leak_protected;
          Alcotest.test_case "sp shared library leaks" `Quick
            test_exp_leak_sp_shared_library;
          Alcotest.test_case "noisy partial" `Quick test_exp_leak_noisy_partial;
        ] );
      ( "llc",
        [
          Alcotest.test_case "sa leaks" `Slow test_llc_sa_leaks;
          Alcotest.test_case "newcache protected" `Quick test_llc_newcache_protected;
        ] );
      ( "equivalences",
        [
          Alcotest.test_case "noisy = sa" `Quick test_equiv_noisy_is_sa;
          Alcotest.test_case "pl unlocked = sa" `Quick test_equiv_pl_unlocked_is_sa;
          Alcotest.test_case "rf window 0 = sa" `Quick test_equiv_rf_window0_is_sa;
          Alcotest.test_case "nomo r=0 = sa" `Quick test_equiv_nomo0_is_sa;
          Alcotest.test_case "re infinite interval = sa" `Quick
            test_equiv_re_huge_interval_is_sa;
          Alcotest.test_case "rp single process ~ sa" `Quick
            test_rp_single_process_like_sa;
        ] );
      ( "engine invariants",
        [
          Alcotest.test_case "counters coherent" `Quick test_engines_counters_coherent;
          Alcotest.test_case "peek matches access" `Quick
            test_engines_peek_matches_next_access;
          Alcotest.test_case "flush then miss" `Quick test_engines_flush_then_miss;
          Alcotest.test_case "deterministic" `Quick test_engines_deterministic;
          Alcotest.test_case "dump valid only" `Quick test_engines_dump_valid_lines_only;
        ] );
    ]
