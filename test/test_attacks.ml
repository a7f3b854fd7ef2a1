(* Tests for the attack harness: layout, victim, attacker primitives,
   key-recovery scoring, the four attacks, the cleaning game, the
   allocation-free fast path and its bit-identity golden digests. *)

open Cachesec_stats
open Cachesec_cache
open Cachesec_crypto
open Cachesec_attacks

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let rng () = Rng.create ~seed:77
let key = Aes.key_of_hex "2b7e151628aed2a6abf7158809cf4f3c"

let make_victim ?(spec = Spec.paper_sa) () =
  let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 79) ] } in
  let engine = Factory.build spec scenario ~rng:(rng ()) in
  let layout = Aes_layout.create engine.Engine.config in
  (Victim.create ~engine ~pid:0 ~key ~layout, engine)

(* --- Aes_layout --------------------------------------------------------- *)

let test_layout_geometry () =
  let l = Aes_layout.create Config.standard in
  Alcotest.(check int) "entries per line" 16 (Aes_layout.entries_per_line l);
  Alcotest.(check int) "lines per table" 16 (Aes_layout.lines_per_table l);
  Alcotest.(check int) "all lines" 80 (List.length (Aes_layout.all_lines l));
  Alcotest.(check (list (pair int int))) "ranges" [ (0, 79) ]
    (Aes_layout.line_ranges l)

let test_layout_mapping () =
  let l = Aes_layout.create Config.standard in
  Alcotest.(check int) "entry 0 of table 0" 0
    (Aes_layout.line_of_entry l ~table:0 ~index:0);
  Alcotest.(check int) "entry 255 of table 0" 15
    (Aes_layout.line_of_entry l ~table:0 ~index:255);
  Alcotest.(check int) "entry 0 of te4" 64
    (Aes_layout.line_of_entry l ~table:4 ~index:0);
  Alcotest.(check int) "access mapping" 17
    (Aes_layout.line_of_access l { Aes.table = 1; index = 16 });
  Alcotest.(check int) "set of entry" 3 (Aes_layout.set_of_entry l ~table:0 ~index:48);
  Alcotest.(check int) "entry line" 3 (Aes_layout.entry_line_of_index l 60)

let test_layout_base () =
  let l = Aes_layout.create ~base_line:100 Config.standard in
  Alcotest.(check int) "offset" 100 (Aes_layout.line_of_entry l ~table:0 ~index:0);
  Alcotest.(check (list (pair int int))) "ranges" [ (100, 179) ]
    (Aes_layout.line_ranges l)

let test_layout_validation () =
  let l = Aes_layout.create Config.standard in
  Alcotest.check_raises "bad table"
    (Invalid_argument "Aes_layout.line_of_entry: bad table") (fun () ->
      ignore (Aes_layout.line_of_entry l ~table:5 ~index:0));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Aes_layout.line_of_entry: bad index") (fun () ->
      ignore (Aes_layout.line_of_entry l ~table:0 ~index:256));
  Alcotest.check_raises "negative base"
    (Invalid_argument "Aes_layout.create: negative base line") (fun () ->
      ignore (Aes_layout.create ~base_line:(-1) Config.standard))

(* --- Victim -------------------------------------------------------------- *)

let test_victim_ciphertext_correct () =
  let v, _ = make_victim () in
  let p = Aes.bytes_of_hex "3243f6a8885a308d313198a2e0370734" in
  let c, _ = Victim.encrypt_timed v p in
  Alcotest.(check string) "same as plain AES"
    (Aes.hex_of_bytes (Aes.encrypt key p))
    (Aes.hex_of_bytes c)

let test_victim_warm_then_fast () =
  let v, _ = make_victim () in
  Victim.warm_tables v;
  let p = Victim.random_plaintext (rng ()) in
  let _, t = Victim.encrypt_timed v p in
  (* On the standard SA cache the 80 table lines fit without conflict:
     a warm encryption has zero misses. *)
  Alcotest.(check (float 0.)) "all hits" 0. t

let test_victim_cold_cost () =
  let v, _ = make_victim () in
  let p = Victim.random_plaintext (rng ()) in
  let _, t = Victim.encrypt_timed v p in
  Alcotest.(check bool) "cold encryption misses a lot" true (t > 30.)

let test_victim_lock_tables () =
  let v, _ = make_victim ~spec:Spec.paper_pl () in
  Alcotest.(check int) "locks all 80 lines" 80 (Victim.lock_tables v);
  let v2, _ = make_victim () in
  Alcotest.(check int) "sa locks nothing" 0 (Victim.lock_tables v2)

let test_random_plaintext () =
  let r = rng () in
  let p = Victim.random_plaintext r in
  Alcotest.(check int) "16 bytes" 16 (Bytes.length p);
  let q = Victim.random_plaintext r in
  Alcotest.(check bool) "varies" false (Bytes.equal p q)

(* --- Attacker -------------------------------------------------------------- *)

let test_conflict_lines () =
  let cfg = Config.standard in
  let lines = List.init 8 (Attacker.nth_conflict_line cfg ~set:5) in
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare lines));
  List.iter
    (fun l ->
      Alcotest.(check int) "maps to set" 5 (Address.set_index cfg l);
      Alcotest.(check bool) "above attacker base" true (l >= Attacker.default_base))
    lines;
  Alcotest.check_raises "bad set"
    (Invalid_argument "Attacker.nth_conflict_line: bad set") (fun () ->
      ignore (Attacker.nth_conflict_line cfg ~set:64 0))

let test_prime_probe_cycle () =
  let _, engine = make_victim () in
  let r = rng () in
  Attacker.prime_all_sets engine ~pid:1 ();
  (* Probing immediately after priming: everything hits. *)
  let probes = Attacker.probe_all_sets engine r ~pid:1 () in
  Array.iter
    (fun (p : Attacker.probe) ->
      Alcotest.(check int) "no misses" 0 p.Attacker.true_misses)
    probes;
  (* A victim access now displaces exactly one primed line somewhere. *)
  ignore (engine.Engine.access ~pid:0 5);
  let probes = Attacker.probe_all_sets engine r ~pid:1 () in
  let total =
    Array.fold_left (fun acc (p : Attacker.probe) -> acc + p.Attacker.true_misses) 0 probes
  in
  Alcotest.(check int) "one miss total" 1 total;
  Alcotest.(check int) "in the right set" 1 probes.(5).Attacker.true_misses

(* --- Fast path ----------------------------------------------------------- *)

(* The base is aligned down to the set stride (64 sets here), then the
   k-th line of a set sits k strides above it. *)
let test_nth_conflict_line () =
  let cfg = Config.standard in
  Alcotest.(check int) "default base" (Attacker.default_base + 5 + (3 * 64))
    (Attacker.nth_conflict_line cfg ~set:5 3);
  Alcotest.(check int) "unaligned base" (960 + 5 + (2 * 64))
    (Attacker.nth_conflict_line cfg ~base:1000 ~set:5 2)

let twin_engines spec =
  let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 79) ] } in
  ( Factory.build spec scenario ~rng:(rng ()),
    Factory.build spec scenario ~rng:(rng ()) )

(* A probe plan must reproduce the record-based attacker primitives
   bit-for-bit: same counts, same float times, same RNG consumption —
   including under timing noise (paper_noisy, sigma = 1). *)
let test_probe_plan_matches_attacker () =
  List.iter
    (fun spec ->
      let e1, e2 = twin_engines spec in
      let r1 = rng () and r2 = rng () in
      let plan = Probe_plan.make e1 ~pid:1 in
      Alcotest.(check int) "line formula"
        (Attacker.nth_conflict_line e1.Engine.config ~set:5 2)
        (Probe_plan.line plan ~set:5 2);
      Probe_plan.prime_all plan;
      Attacker.prime_all_sets e2 ~pid:1 ();
      (* Victim touches displace some primed lines on both engines. *)
      List.iter
        (fun l ->
          ignore (e1.Engine.access ~pid:0 l);
          ignore (e2.Engine.access ~pid:0 l))
        [ 5; 17; 42 ];
      Probe_plan.probe_all plan r1;
      let probes = Attacker.probe_all_sets e2 r2 ~pid:1 () in
      Array.iteri
        (fun set (p : Attacker.probe) ->
          Alcotest.(check int) "true misses" p.Attacker.true_misses
            (Probe_plan.true_misses plan set);
          Alcotest.(check int) "classified" p.Attacker.classified_misses
            (Probe_plan.classified_misses plan set);
          Alcotest.(check (float 0.)) "time" p.Attacker.time
            (Probe_plan.time plan set))
        probes)
    [ Spec.paper_sa; Spec.paper_rp; Spec.paper_noisy ]

let test_encrypt_traced_into_matches () =
  let p = Aes.bytes_of_hex "3243f6a8885a308d313198a2e0370734" in
  let ct, accs = Aes.encrypt_traced key p in
  let sc = Aes.create_scratch () in
  let dst = Bytes.create 16 in
  let trace = Array.make Aes.trace_length 0 in
  Aes.encrypt_traced_into sc key ~src:p ~dst ~trace;
  Alcotest.(check string) "ciphertext" (Aes.hex_of_bytes ct)
    (Aes.hex_of_bytes dst);
  Alcotest.(check int) "trace length" Aes.trace_length (Array.length accs);
  Array.iteri
    (fun i (a : Aes.access) ->
      Alcotest.(check int) "table" a.Aes.table (Aes.table_of_packed trace.(i));
      Alcotest.(check int) "index" a.Aes.index (Aes.index_of_packed trace.(i)))
    accs

let test_encrypt_misses_matches_timed () =
  let v1, _ = make_victim () in
  let v2, _ = make_victim () in
  let r = rng () in
  let p = Bytes.create 16 in
  for _ = 1 to 5 do
    Victim.random_plaintext_into r p;
    let _, t = Victim.encrypt_timed v1 p in
    let m = Victim.encrypt_misses v2 p in
    Alcotest.(check (float 0.)) "time = time_of_counts" t
      (Timing.time_of_counts ~hits:(Aes.trace_length - m) ~misses:m)
  done

let test_random_plaintext_into_stream () =
  let r1 = rng () and r2 = rng () in
  let b = Bytes.create 16 in
  for _ = 1 to 3 do
    let p = Victim.random_plaintext r1 in
    Victim.random_plaintext_into r2 b;
    Alcotest.(check string) "same bytes and stream" (Bytes.to_string p)
      (Bytes.to_string b)
  done

(* --- Golden bit-identity -------------------------------------------------- *)

(* The digests in test/golden/attacks.golden were recorded against the
   pre-fast-path attack loops; matching them proves the refactor changed
   no result bit on any of the nine architectures. *)
let golden_path () =
  if Sys.file_exists "golden/attacks.golden" then "golden/attacks.golden"
  else "test/golden/attacks.golden"

let test_golden attack () =
  let golden = Attacks_workload.Workload.read_golden ~path:(golden_path ()) in
  let ran = ref 0 in
  List.iter
    (fun (name, run) ->
      match String.index_opt name ':' with
      | Some i
        when String.sub name (i + 1) (String.length name - i - 1) = attack ->
        (match List.assoc_opt name golden with
        | None -> Alcotest.failf "no golden digest recorded for %s" name
        | Some d ->
          incr ran;
          Alcotest.(check string) name d (run ()))
      | _ -> ())
    (Attacks_workload.Workload.cases ());
  Alcotest.(check int) "covers all nine architectures" 9 !ran

(* --- Allocation guards ---------------------------------------------------- *)

(* Steady-state prime+probe on the SA cache: the plan's 512 lines fill
   the cache exactly, so after one warm round every access hits and the
   zero-allocation fast path must allocate nothing. 64 words of slack
   absorb Gc.minor_words' own float boxing. *)
let test_probe_plan_zero_alloc () =
  let _, engine = make_victim () in
  let plan = Probe_plan.make engine ~pid:1 in
  let r = rng () in
  Probe_plan.prime_all plan;
  Probe_plan.probe_all plan r;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Probe_plan.prime_all plan;
    Probe_plan.probe_all plan r
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state prime+probe allocated %.0f words" delta)
    true (delta <= 64.)

(* A full prime+probe trial includes victim encryptions whose misses
   legitimately allocate a bounded outcome record inside the engine; the
   loop itself must stay within a small per-access budget. *)
let test_prime_probe_trial_alloc_budget () =
  let v, engine = make_victim () in
  let plan = Probe_plan.make engine ~pid:1 in
  let r = rng () in
  let p = Bytes.create 16 in
  let trial () =
    Probe_plan.prime_all plan;
    Victim.random_plaintext_into r p;
    Victim.encrypt_quiet_fast v p;
    Probe_plan.probe_all plan r
  in
  for _ = 1 to 5 do
    trial ()
  done;
  let trials = 50 in
  let accesses =
    (2 * Probe_plan.sets plan * Probe_plan.ways plan) + Aes.trace_length
  in
  let budget = float_of_int (trials * 20 * accesses) +. 64. in
  let before = Gc.minor_words () in
  for _ = 1 to trials do
    trial ()
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "trial loop allocated %.0f words (budget %.0f)" delta
       budget)
    true (delta <= budget)

(* --- Recovery --------------------------------------------------------------- *)

let test_recovery_argmax_rank () =
  let scores = [| 0.1; 0.9; 0.5; 0.9 |] in
  Alcotest.(check int) "argmax first max" 1 (Recovery.argmax scores);
  Alcotest.(check int) "rank of best" 0 (Recovery.rank scores 1);
  Alcotest.(check int) "rank of worst" 3 (Recovery.rank scores 0);
  Alcotest.check_raises "empty" (Invalid_argument "Recovery.argmax: empty")
    (fun () -> ignore (Recovery.argmax [||]))

let test_recovery_normalize () =
  let n = Recovery.normalize [| 2.; 4.; 6. |] in
  Alcotest.(check (array (Alcotest.float 1e-9))) "scaled" [| 0.; 0.5; 1. |] n;
  let flat = Recovery.normalize [| 3.; 3. |] in
  Alcotest.(check (array (Alcotest.float 1e-9))) "flat to zero" [| 0.; 0. |] flat

let test_recovery_grouping () =
  let scores = Array.init 32 (fun i -> if i / 16 = 1 then 1. else 0.) in
  let g = Recovery.group_scores scores ~group_size:16 in
  Alcotest.(check (array (Alcotest.float 1e-9))) "groups" [| 0.; 1. |] g;
  Alcotest.(check bool) "nibble recovered" true
    (Recovery.nibble_recovered ~scores ~true_byte:20 ~group_size:16);
  Alcotest.(check bool) "nibble wrong" false
    (Recovery.nibble_recovered ~scores ~true_byte:3 ~group_size:16);
  Alcotest.check_raises "bad group"
    (Invalid_argument "Recovery.group_scores: group_size must divide length")
    (fun () -> ignore (Recovery.group_scores scores ~group_size:5))

let test_recovery_separation () =
  let scores = [| 0.; 1.; 2.; 10. |] in
  Alcotest.(check bool) "well separated" true
    (Recovery.separation scores ~winner:3 > 2.);
  Alcotest.(check bool) "zero-spread others is nan" true
    (Float.is_nan (Recovery.separation [| 0.; 0.; 0.; 10. |] ~winner:3));
  Alcotest.(check bool) "tiny array nan" true
    (Float.is_nan (Recovery.separation [| 1.; 2. |] ~winner:1))

let prop_normalize_range =
  qtest "normalize lands in [0,1]"
    QCheck.(array_of_size (QCheck.Gen.int_range 1 50) (float_bound_inclusive 100.))
    (fun a ->
      Array.for_all (fun x -> x >= 0. && x <= 1.) (Recovery.normalize a))

(* --- Attacks (small but meaningful runs) ------------------------------------- *)

let test_evict_time_sa_recovers () =
  let v, _ = make_victim () in
  let r =
    Evict_time.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      { Evict_time.default_config with Evict_time.trials = 50000 }
  in
  Alcotest.(check bool) "recovered" true r.Evict_time.nibble_recovered;
  Alcotest.(check int) "true key byte" 0x2b r.Evict_time.true_byte;
  Alcotest.(check int) "bins" 256 (Array.length r.Evict_time.avg_times);
  Alcotest.(check int) "all trials binned" 50000
    (Array.fold_left ( + ) 0 r.Evict_time.counts)

let test_evict_time_sp_protected () =
  let v, _ = make_victim ~spec:Spec.paper_sp () in
  let r =
    Evict_time.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      { Evict_time.default_config with Evict_time.trials = 3000 }
  in
  Alcotest.(check bool) "no recovery" false r.Evict_time.nibble_recovered

let test_evict_time_pl_locked_protected () =
  let v, _ = make_victim ~spec:Spec.paper_pl () in
  let r =
    Evict_time.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      {
        Evict_time.default_config with
        Evict_time.trials = 3000;
        lock_victim_tables = true;
      }
  in
  Alcotest.(check bool) "no recovery" false r.Evict_time.nibble_recovered

let test_evict_time_validation () =
  let v, _ = make_victim () in
  Alcotest.check_raises "trials"
    (Invalid_argument "Evict_time.run: trials must be positive") (fun () ->
      ignore
        (Evict_time.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
           { Evict_time.default_config with Evict_time.trials = 0 }));
  Alcotest.check_raises "byte"
    (Invalid_argument "Evict_time.run: target_byte must be in 0..15") (fun () ->
      ignore
        (Evict_time.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
           { Evict_time.default_config with Evict_time.target_byte = 16 }))

let test_prime_probe_sa_recovers () =
  let v, _ = make_victim () in
  let r =
    Prime_probe.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      { Prime_probe.default_config with Prime_probe.trials = 1500 }
  in
  Alcotest.(check bool) "recovered" true r.Prime_probe.nibble_recovered;
  (* The true candidate's predicted set must be missed on every trial. *)
  Alcotest.(check (float 1e-9)) "true candidate saturates" 1.
    r.Prime_probe.scores.(r.Prime_probe.true_byte)

let test_prime_probe_newcache_protected () =
  let v, _ = make_victim ~spec:Spec.paper_newcache () in
  let r =
    Prime_probe.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      { Prime_probe.default_config with Prime_probe.trials = 300 }
  in
  Alcotest.(check bool) "no recovery" false r.Prime_probe.nibble_recovered

let test_collision_sa_signal () =
  let v, _ = make_victim () in
  let r =
    Collision.run ~victim:v ~rng:(rng ())
      { Collision.default_config with Collision.trials = 100000 }
  in
  Alcotest.(check int) "true delta" 0x03 r.Collision.true_delta;
  (* The true delta group's average time must sit below the grand mean
     (collision = one less miss), even when argmax is noisy. *)
  let grand = Array.fold_left ( +. ) 0. r.Collision.avg_times /. 256. in
  let group = r.Collision.true_delta / 16 in
  let group_mean =
    Array.fold_left ( +. ) 0. (Array.sub r.Collision.avg_times (group * 16) 16)
    /. 16.
  in
  Alcotest.(check bool) "true group is faster" true (group_mean < grand)

let test_collision_rf_flat () =
  let v, _ = make_victim ~spec:Spec.paper_rf () in
  let r =
    Collision.run ~victim:v ~rng:(rng ())
      { Collision.default_config with Collision.trials = 30000 }
  in
  let grand = Array.fold_left ( +. ) 0. r.Collision.avg_times /. 256. in
  let group = r.Collision.true_delta / 16 in
  let group_mean =
    Array.fold_left ( +. ) 0. (Array.sub r.Collision.avg_times (group * 16) 16)
    /. 16.
  in
  Alcotest.(check bool) "no reuse signal under RF" true
    (Float.abs (group_mean -. grand) < 0.5)

let test_collision_validation () =
  let v, _ = make_victim () in
  let run c = ignore (Collision.run ~victim:v ~rng:(rng ()) c) in
  Alcotest.check_raises "same byte" (Invalid_argument "Collision.run: bytes must differ")
    (fun () -> run { Collision.default_config with Collision.trials = 10; byte_i = 3; byte_j = 3 });
  Alcotest.check_raises "different table"
    (Invalid_argument "Collision.run: bytes must share a table (equal mod 4)")
    (fun () -> run { Collision.default_config with Collision.trials = 10; byte_i = 0; byte_j = 1 })

let test_flush_reload_sa_recovers () =
  let v, _ = make_victim () in
  let r =
    Flush_reload.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      { Flush_reload.default_config with Flush_reload.trials = 1000 }
  in
  Alcotest.(check bool) "recovered" true r.Flush_reload.nibble_recovered;
  Alcotest.(check int) "line profile" 16 (Array.length r.Flush_reload.line_hit_rate)

let test_flush_reload_newcache_flat () =
  let v, _ = make_victim ~spec:Spec.paper_newcache () in
  let r =
    Flush_reload.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      { Flush_reload.default_config with Flush_reload.trials = 300 }
  in
  (* PID tags: the attacker's reloads never hit on victim fetches. *)
  Array.iter
    (fun h -> Alcotest.(check (float 1e-9)) "zero hit rate" 0. h)
    r.Flush_reload.line_hit_rate;
  Alcotest.(check bool) "no recovery" false r.Flush_reload.nibble_recovered

let test_flush_reload_rp_flat () =
  let v, _ = make_victim ~spec:Spec.paper_rp () in
  let r =
    Flush_reload.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      { Flush_reload.default_config with Flush_reload.trials = 300 }
  in
  Alcotest.(check bool) "no recovery" false r.Flush_reload.nibble_recovered

let test_last_round_recovers_master_key () =
  let v, _ = make_victim () in
  let r =
    Last_round.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      { Last_round.trials = 1200 }
  in
  Alcotest.(check int) "all round-10 bytes" 16 r.Last_round.bytes_correct;
  Alcotest.(check bool) "master key" true r.Last_round.key_recovered;
  Alcotest.(check string) "the actual key" "2b7e151628aed2a6abf7158809cf4f3c"
    r.Last_round.master_key_guess

let test_last_round_newcache_fails () =
  let v, _ = make_victim ~spec:Spec.paper_newcache () in
  let r =
    Last_round.run ~victim:v ~attacker_pid:1 ~rng:(rng ())
      { Last_round.trials = 400 }
  in
  Alcotest.(check bool) "no key" false r.Last_round.key_recovered;
  Alcotest.(check bool) "at most chance-level bytes" true
    (r.Last_round.bytes_correct <= 2)

(* --- Cleaner ------------------------------------------------------------------ *)

let test_cleaner_zero_accesses () =
  Alcotest.(check bool) "k=0 fails" false
    (Cleaner.clean_once Spec.paper_sa ~rng:(rng ()) ~accesses:0)

let test_cleaner_sp_pl_immune () =
  List.iter
    (fun spec ->
      Alcotest.(check (float 0.))
        (Spec.name spec ^ " never cleaned")
        0.
        (Cleaner.monte_carlo spec ~accesses:500 ~samples:50 ~rng:(rng ())))
    [ Spec.paper_sp; Spec.paper_pl ]

let test_cleaner_sa_matches_closed_form () =
  let mc =
    Cleaner.monte_carlo Spec.paper_sa ~accesses:16 ~samples:3000 ~rng:(rng ())
  in
  let cf = Coupon.prob_all_covered ~bins:8 ~trials:16 in
  Alcotest.(check (float 0.05)) "SA matches coupon collector" cf mc

let test_cleaner_lru_step () =
  let spec = Spec.Sa { ways = 8; policy = Policy.Lru } in
  Alcotest.(check (float 0.)) "k=7 fails" 0.
    (Cleaner.monte_carlo spec ~accesses:7 ~samples:50 ~rng:(rng ()));
  Alcotest.(check (float 0.)) "k=8 succeeds" 1.
    (Cleaner.monte_carlo spec ~accesses:8 ~samples:50 ~rng:(rng ()))

let test_cleaner_newcache_rate () =
  let mc =
    Cleaner.monte_carlo Spec.paper_newcache ~accesses:64 ~samples:3000
      ~rng:(rng ())
  in
  let cf = 1. -. ((511. /. 512.) ** 64.) in
  Alcotest.(check (float 0.03)) "newcache line eviction rate" cf mc

let test_cleaner_re_free_lunch () =
  let sa = Spec.Sa { ways = 8; policy = Policy.Lru } in
  let re = Spec.Re { ways = 8; policy = Policy.Lru; interval = 2 } in
  (* With LRU and interval 2, k=6 gives 6+3 = 9 >= 8 effective evictions
     sometimes; in the simulator the free lunches land anywhere, so just
     check RE >= SA at the LRU boundary. *)
  let p_sa = Cleaner.monte_carlo sa ~accesses:7 ~samples:400 ~rng:(rng ()) in
  let p_re = Cleaner.monte_carlo re ~accesses:7 ~samples:400 ~rng:(rng ()) in
  Alcotest.(check bool) "free lunch helps" true (p_re >= p_sa)

let test_cleaner_sweep_monotone () =
  let pts =
    Cleaner.sweep Spec.paper_sa ~accesses_list:[ 8; 16; 32; 64 ] ~samples:800
      ~rng:(rng ())
  in
  let rec check = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      Alcotest.(check bool) "roughly monotone" true (b >= a -. 0.08);
      check rest
    | _ -> ()
  in
  check pts

let () =
  Alcotest.run "attacks"
    [
      ( "layout",
        [
          Alcotest.test_case "geometry" `Quick test_layout_geometry;
          Alcotest.test_case "mapping" `Quick test_layout_mapping;
          Alcotest.test_case "base offset" `Quick test_layout_base;
          Alcotest.test_case "validation" `Quick test_layout_validation;
        ] );
      ( "victim",
        [
          Alcotest.test_case "ciphertext correct" `Quick test_victim_ciphertext_correct;
          Alcotest.test_case "warm is fast" `Quick test_victim_warm_then_fast;
          Alcotest.test_case "cold is slow" `Quick test_victim_cold_cost;
          Alcotest.test_case "lock tables" `Quick test_victim_lock_tables;
          Alcotest.test_case "random plaintext" `Quick test_random_plaintext;
        ] );
      ( "attacker",
        [
          Alcotest.test_case "conflict lines" `Quick test_conflict_lines;
          Alcotest.test_case "prime/probe cycle" `Quick test_prime_probe_cycle;
        ] );
      ( "fast path",
        [
          Alcotest.test_case "nth conflict line" `Quick test_nth_conflict_line;
          Alcotest.test_case "probe plan = attacker probes" `Quick
            test_probe_plan_matches_attacker;
          Alcotest.test_case "encrypt_traced_into = encrypt_traced" `Quick
            test_encrypt_traced_into_matches;
          Alcotest.test_case "encrypt_misses = encrypt_timed" `Quick
            test_encrypt_misses_matches_timed;
          Alcotest.test_case "random_plaintext_into stream" `Quick
            test_random_plaintext_into_stream;
          Alcotest.test_case "probe plan steady state is zero-alloc" `Quick
            test_probe_plan_zero_alloc;
          Alcotest.test_case "trial allocation budget" `Quick
            test_prime_probe_trial_alloc_budget;
        ] );
      ( "golden",
        [
          Alcotest.test_case "evict-time bit-identical" `Slow
            (test_golden "evict-time");
          Alcotest.test_case "prime-probe bit-identical" `Slow
            (test_golden "prime-probe");
          Alcotest.test_case "flush-reload bit-identical" `Slow
            (test_golden "flush-reload");
          Alcotest.test_case "collision bit-identical" `Slow
            (test_golden "collision");
        ] );
      ( "recovery",
        [
          Alcotest.test_case "argmax & rank" `Quick test_recovery_argmax_rank;
          Alcotest.test_case "normalize" `Quick test_recovery_normalize;
          Alcotest.test_case "grouping" `Quick test_recovery_grouping;
          Alcotest.test_case "separation" `Quick test_recovery_separation;
          prop_normalize_range;
        ] );
      ( "evict-and-time",
        [
          Alcotest.test_case "sa recovers" `Slow test_evict_time_sa_recovers;
          Alcotest.test_case "sp protected" `Quick test_evict_time_sp_protected;
          Alcotest.test_case "pl locked protected" `Quick
            test_evict_time_pl_locked_protected;
          Alcotest.test_case "validation" `Quick test_evict_time_validation;
        ] );
      ( "prime-and-probe",
        [
          Alcotest.test_case "sa recovers" `Slow test_prime_probe_sa_recovers;
          Alcotest.test_case "newcache protected" `Quick
            test_prime_probe_newcache_protected;
        ] );
      ( "cache-collision",
        [
          Alcotest.test_case "sa signal" `Slow test_collision_sa_signal;
          Alcotest.test_case "rf flat" `Slow test_collision_rf_flat;
          Alcotest.test_case "validation" `Quick test_collision_validation;
        ] );
      ( "flush-and-reload",
        [
          Alcotest.test_case "sa recovers" `Quick test_flush_reload_sa_recovers;
          Alcotest.test_case "newcache flat" `Quick test_flush_reload_newcache_flat;
          Alcotest.test_case "rp flat" `Quick test_flush_reload_rp_flat;
        ] );
      ( "last round",
        [
          Alcotest.test_case "recovers the master key" `Slow
            test_last_round_recovers_master_key;
          Alcotest.test_case "newcache fails" `Quick test_last_round_newcache_fails;
        ] );
      ( "cleaner",
        [
          Alcotest.test_case "zero accesses" `Quick test_cleaner_zero_accesses;
          Alcotest.test_case "sp & pl immune" `Quick test_cleaner_sp_pl_immune;
          Alcotest.test_case "sa closed form" `Quick test_cleaner_sa_matches_closed_form;
          Alcotest.test_case "lru step" `Quick test_cleaner_lru_step;
          Alcotest.test_case "newcache rate" `Quick test_cleaner_newcache_rate;
          Alcotest.test_case "re free lunch" `Quick test_cleaner_re_free_lunch;
          Alcotest.test_case "sweep monotone" `Quick test_cleaner_sweep_monotone;
        ] );
    ]
