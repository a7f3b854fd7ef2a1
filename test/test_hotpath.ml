(* Golden-trace equivalence + allocation guard for the zero-allocation
   hot path.

   The digests in test/golden/hotpath.golden were recorded from the
   pre-optimization (seed) engines. Every optimized engine must replay
   the frozen 20k-op workload bit-identically: same per-op outcomes
   (including eviction payloads), same counters, same final line dump.
   Any divergence means the "performance" change altered simulated
   behaviour and must be rejected.

   The allocation guards additionally pin the hit paths — SA's under
   LRU and PLRU, and the warm [Engine.access] hit and warm Count run of
   every architecture — and every architecture's cold Count run after a
   [flush_all] to (essentially) zero minor-heap words per access: the
   path is hammered and the [Gc.minor_words] delta is asserted to be
   far below one word per access. The "reset" guards hold every
   architecture's [Engine.reset] to the same budget, over samples that
   fit the dirty log and samples that overflow it. *)

open Cachesec_stats
open Cachesec_cache
open Hotpath_workload

(* Under [dune runtest] the cwd is the test directory (the golden file
   is declared as a dep); under a bare [dune exec] from the repo root it
   lives one level down. *)
let golden_path =
  if Sys.file_exists "golden/hotpath.golden" then "golden/hotpath.golden"
  else "test/golden/hotpath.golden"

let test_golden_traces () =
  let golden = Workload.read_golden ~path:golden_path in
  Alcotest.(check bool)
    "golden file present and non-empty" true
    (List.length golden > 0);
  let current = Workload.all_digests () in
  (* Same case set, same order. *)
  Alcotest.(check (list string))
    "case names" (List.map fst golden) (List.map fst current);
  List.iter2
    (fun (name, want) (_, got) ->
      Alcotest.(check string) (Printf.sprintf "digest %s" name) want got)
    golden current

(* --- allocation guard ------------------------------------------------- *)

let test_sa_lru_hit_path_allocation_free () =
  let rng = Rng.create ~seed:42 in
  let sa = Sa.engine (Sa.create ~config:Config.standard ~policy:Policy.Lru ~rng ()) in
  let sets = Config.sets sa.Engine.config in
  (* Warm: make lines 0 .. sets-1 resident (one per set, way 0). *)
  for addr = 0 to sets - 1 do
    ignore (sa.Engine.access ~pid:0 addr)
  done;
  (* Hammer hits; every access must return the preallocated
     [Outcome.hit] and allocate nothing on the minor heap. *)
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for i = 0 to iters - 1 do
    ignore (sa.Engine.access ~pid:0 (i mod sets))
  done;
  let after = Gc.minor_words () in
  (* Each [Gc.minor_words] call itself boxes a float (2-3 words); allow
     a small constant slack but nothing proportional to [iters]. *)
  let delta = after -. before in
  if delta > 64. then
    Alcotest.failf "SA/LRU hit path allocated %.0f minor words over %d hits"
      delta iters

let test_sa_random_miss_path_allocation_lean () =
  (* Misses allocate the outcome record and its [Some] payloads - a
     small bounded amount, not O(ways) scan lists as before. Budget:
     well under 20 words per access. *)
  let rng = Rng.create ~seed:43 in
  let sa = Sa.engine (Sa.create ~config:Config.standard ~policy:Policy.Random ~rng ()) in
  let iters = 50_000 in
  (* Distinct tags per set so every access misses and evicts. *)
  let before = Gc.minor_words () in
  for i = 0 to iters - 1 do
    ignore (sa.Engine.access ~pid:0 i)
  done;
  let after = Gc.minor_words () in
  let per_access = (after -. before) /. float_of_int iters in
  if per_access > 20. then
    Alcotest.failf "SA/Random miss path allocates %.1f minor words/access"
      per_access

let test_sa_plru_hit_path_allocation_free () =
  (* PLRU hits run [Policy.plru_touch] — an int-array read-modify-write
     walking the tree word — on top of the [last_use] store. Must stay
     off the minor heap like the LRU hit path. *)
  let rng = Rng.create ~seed:44 in
  let sa = Sa.engine (Sa.create ~config:Config.standard ~policy:Policy.Plru ~rng ()) in
  let sets = Config.sets sa.Engine.config in
  for addr = 0 to sets - 1 do
    ignore (sa.Engine.access ~pid:0 addr)
  done;
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for i = 0 to iters - 1 do
    ignore (sa.Engine.access ~pid:0 (i mod sets))
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if delta > 64. then
    Alcotest.failf "SA/PLRU hit path allocated %.0f minor words over %d hits"
      delta iters

let test_sa_lfu_miss_path_allocation_lean () =
  (* LFU misses run the contiguous min-frequency scan; like the random
     miss path, only the outcome record itself may allocate. *)
  let rng = Rng.create ~seed:45 in
  let sa = Sa.engine (Sa.create ~config:Config.standard ~policy:Policy.Lfu ~rng ()) in
  let iters = 50_000 in
  let before = Gc.minor_words () in
  for i = 0 to iters - 1 do
    ignore (sa.Engine.access ~pid:0 i)
  done;
  let after = Gc.minor_words () in
  let per_access = (after -. before) /. float_of_int iters in
  if per_access > 20. then
    Alcotest.failf "SA/LFU miss path allocates %.1f minor words/access"
      per_access

let test_sa_mru_miss_path_allocation_lean () =
  (* MRU misses run the max-last-use scan ([Slab.scan_max]). *)
  let rng = Rng.create ~seed:46 in
  let sa = Sa.engine (Sa.create ~config:Config.standard ~policy:Policy.Mru ~rng ()) in
  let iters = 50_000 in
  let before = Gc.minor_words () in
  for i = 0 to iters - 1 do
    ignore (sa.Engine.access ~pid:0 i)
  done;
  let after = Gc.minor_words () in
  let per_access = (after -. before) /. float_of_int iters in
  if per_access > 20. then
    Alcotest.failf "SA/MRU miss path allocates %.1f minor words/access"
      per_access

(* Warm [Count] runs on every architecture: the victim replays a
   64-line trace inside its own domain (SP partition, Nomo reserved
   ways, RF window, RP mapping, Newcache context) over and over, so
   every run is mostly hits, plus RE's periodic evictions and RF's
   window misses — none of which may allocate. Built through [Factory]
   so SP's scenario-derived [home] closure is the one under test. *)
let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 200) ] }

let test_count_run_allocation_free spec () =
  let engine = Factory.build spec scenario ~rng:(Rng.create ~seed:47) in
  let trace = Array.init 64 (fun i -> 3 * i) in
  let counter = Kernel.make_counter ~bins:1 in
  let count = Kernel.Count counter in
  let run () = engine.Engine.access_run ~pid:0 ~trace ~pos:0 ~len:64 count in
  run ();
  let iters = 2_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    run ()
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if delta > 64. then
    Alcotest.failf "%s warm Count runs allocated %.0f minor words over %d accesses"
      engine.Engine.name delta (iters * 64)

(* Cold [Count] runs after [flush_all] on every architecture: a
   collision trial's engine work, which empties the cache and replays a
   160-access encryption that mostly misses. Flushing, the misses'
   fills and the evictions they cause (Newcache's CAM updates among
   them) must all stay off the minor heap. *)
let test_cold_count_run_allocation_free spec () =
  let engine = Factory.build spec scenario ~rng:(Rng.create ~seed:49) in
  let trace = Array.init 160 (fun i -> (7 * i) mod 200) in
  let counter = Kernel.make_counter ~bins:1 in
  let count = Kernel.Count counter in
  let trial () =
    engine.Engine.flush_all ();
    engine.Engine.access_run ~pid:0 ~trace ~pos:0 ~len:160 count
  in
  trial ();
  let trials = 1_000 in
  let misses = counter.Kernel.true_misses.(0) in
  let before = Gc.minor_words () in
  for _ = 1 to trials do
    trial ()
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if counter.Kernel.true_misses.(0) - misses < trials * 80 then
    Alcotest.failf "%s cold runs were mostly hits" engine.Engine.name;
  if delta > 64. then
    Alcotest.failf
      "%s cold Count runs after flush_all allocated %.0f minor words over %d \
       trials"
      engine.Engine.name delta trials

(* The warm hit path of [Engine.access] — derived from the same step as
   the runs — returns the preallocated [Outcome.hit] on every
   architecture. Warming repeats until a whole pass hits (Newcache's
   random fills can displace a warmed line; RF's window fills fetch a
   neighbour instead of the line itself). RE is built with an interval
   no run reaches: its periodic eviction is not a hit and reports an
   allocated outcome. *)
let test_access_hit_allocation_free spec () =
  let spec =
    match spec with
    | Spec.Re r -> Spec.Re { r with interval = max_int }
    | spec -> spec
  in
  let engine = Factory.build spec scenario ~rng:(Rng.create ~seed:48) in
  let lines = Array.init 64 (fun i -> 3 * i) in
  let pass () =
    Array.fold_left
      (fun all a -> Outcome.is_hit (engine.Engine.access ~pid:0 a) && all)
      true lines
  in
  let passes = ref 1 in
  while (not (pass ())) && !passes < 10_000 do
    incr passes
  done;
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for i = 0 to iters - 1 do
    ignore (engine.Engine.access ~pid:0 (Array.unsafe_get lines (i land 63)))
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if delta > 64. then
    Alcotest.failf "%s warm access hits allocated %.0f minor words over %d hits"
      engine.Engine.name delta iters

(* [Engine.reset] on every architecture, as a cleaning batch uses it:
   a sample's Fill runs, then a reset. A short sample leaves the dirty
   log short and the reset clears only the logged lines; a long one (200
   victim lines, then 1024 others) overflows it and the reset makes the
   full pass. The runs are held allocation-free above, so here the whole
   loop must be. *)
let test_reset_allocation_free spec ~overflow () =
  let engine = Factory.build spec scenario ~rng:(Rng.create ~seed:50) in
  let rng = Rng.create ~seed:51 in
  let slab = engine.Engine.slab in
  let victim = Array.init 200 Fun.id in
  let other = Array.init (if overflow then 1024 else 48) (fun i -> 201 + i) in
  let sample () =
    if overflow then
      engine.Engine.access_run ~pid:0 ~trace:victim ~pos:0 ~len:200 Kernel.Fill;
    engine.Engine.access_run ~pid:1 ~trace:other ~pos:0
      ~len:(Array.length other) Kernel.Fill
  in
  sample ();
  engine.Engine.reset ~rng;
  let trials = 500 in
  let wrong_path = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to trials do
    sample ();
    if slab.Slab.dirty_len > Array.length slab.Slab.dirty <> overflow then
      incr wrong_path;
    engine.Engine.reset ~rng
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if !wrong_path > 0 then
    Alcotest.failf "%s: %d of %d samples %s the dirty log" engine.Engine.name
      !wrong_path trials
      (if overflow then "did not overflow" else "overflowed");
  if delta > 64. then
    Alcotest.failf "%s samples and resets allocated %.0f minor words over %d trials"
      engine.Engine.name delta trials

let () =
  Alcotest.run "hotpath"
    [
      ( "golden-trace",
        [ Alcotest.test_case "all engines bit-identical" `Quick test_golden_traces ] );
      ( "allocation",
        [
          Alcotest.test_case "sa/lru hit path zero-alloc" `Quick
            test_sa_lru_hit_path_allocation_free;
          Alcotest.test_case "sa/random miss path lean" `Quick
            test_sa_random_miss_path_allocation_lean;
          Alcotest.test_case "sa/plru hit path zero-alloc" `Quick
            test_sa_plru_hit_path_allocation_free;
          Alcotest.test_case "sa/lfu miss path lean" `Quick
            test_sa_lfu_miss_path_allocation_lean;
          Alcotest.test_case "sa/mru miss path lean" `Quick
            test_sa_mru_miss_path_allocation_lean;
        ]
        @ List.concat_map
            (fun spec ->
              [
                Alcotest.test_case
                  (Spec.name spec ^ " warm Count run zero-alloc")
                  `Quick
                  (test_count_run_allocation_free spec);
                Alcotest.test_case
                  (Spec.name spec ^ " warm access hit zero-alloc")
                  `Quick
                  (test_access_hit_allocation_free spec);
                Alcotest.test_case
                  (Spec.name spec ^ " cold Count run after flush_all zero-alloc")
                  `Quick
                  (test_cold_count_run_allocation_free spec);
              ])
            Spec.all_paper );
      ( "reset",
        List.concat_map
          (fun spec ->
            [
              Alcotest.test_case
                (Spec.name spec ^ " reset, short log zero-alloc")
                `Quick
                (test_reset_allocation_free spec ~overflow:false);
              Alcotest.test_case
                (Spec.name spec ^ " reset, full pass zero-alloc")
                `Quick
                (test_reset_allocation_free spec ~overflow:true);
            ])
          Spec.all_paper );
    ]
