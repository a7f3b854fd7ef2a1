(* Reference-model fuzz: every engine against a naive simulator.

   Each factory cell's production engine (one access step per
   architecture, from which both [access] and [access_run] derive) is
   driven in lockstep with [Reference] — a deliberately naive model in
   test/reference/ written from the transition table in
   docs/ARCHITECTURE.md, sharing no code with the engines — from the
   same spec and the same engine RNG state. Every observable must agree:
   per-op outcomes (eviction payloads included), hence the RNG draw
   order; counters; the final line dump.

   The suites: "differential-fuzz" replays random mixed-op workloads
   (accesses, peeks, flushes, locks, window changes, full flushes) one
   scalar op at a time; "batched-fuzz" (QCheck) runs [access_run] in
   Fill and Count mode, straddling the same scalar ops, against the
   model looped one access at a time with the Count accumulation
   written out below, and as one [len:1] Count run per access, whose
   hit or miss is checked against the model's access by access. "index-conflicts" replays a Newcache workload
   built to hit its (pid, logical index) conflict path, which the
   shared address draw never reaches. "sp-homing" gives SP two or three
   victim ranges, where the shared scenario has one. "flush-equivalence"
   checks [flush_all] against a full pass written out here. "reset"
   checks [Engine.reset] against a fresh build: engine against engine,
   the fuzz above with resets interleaved, and the cleaning game's
   batched count against its one-sample games. *)

open Cachesec_stats
open Cachesec_cache

let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 200) ] }

let case_name spec =
  match Spec.policy_of spec with
  | Some p -> Spec.name spec ^ ":" ^ Policy.to_string p
  | None -> Spec.name spec ^ ":secrand"

(* All 57 factory cells: 8 policied architectures x the full policy
   registry plus Newcache (SecRAND only). *)
let cells () =
  List.concat_map
    (fun spec ->
      match Spec.policy_of spec with
      | None -> [ spec ]
      | Some _ -> List.map (Spec.with_policy spec) Policy.all)
    Spec.all_paper

let fmt_outcome (o : Outcome.t) =
  let b = Buffer.create 32 in
  Buffer.add_char b (match o.Outcome.event with Outcome.Hit -> 'H' | Outcome.Miss -> 'M');
  Buffer.add_char b (if o.Outcome.cached then 'c' else 'u');
  (match o.Outcome.fetched with
  | None -> Buffer.add_char b '-'
  | Some l -> Buffer.add_string b (string_of_int l));
  List.iter
    (fun (pid, line) -> Buffer.add_string b (Printf.sprintf "e%d.%d" pid line))
    (Reference.evictions o);
  Buffer.contents b

(* A run observed access by access: one [len:1] Count run per access at
   sigma 0, where a counted miss is a true miss, so each access reads
   H or M. [model_events] is the model's side, from [Reference.access]. *)
let run_events (engine : Engine.t) ~pid ~trace ~pos ~len =
  let counter = Kernel.make_counter ~bins:1 in
  let count = Kernel.Count counter in
  String.init len (fun k ->
      counter.Kernel.misses.(0) <- 0;
      engine.Engine.access_run ~pid ~trace ~pos:(pos + k) ~len:1 count;
      if counter.Kernel.misses.(0) = 0 then 'H' else 'M')

let model_events model ~pid ~trace ~pos ~len =
  String.init len (fun k ->
      if Outcome.is_miss (Reference.access model ~pid trace.(pos + k)) then 'M'
      else 'H')

let fmt_counts ~accesses ~hits ~misses ~evictions ~read_throughs ~flushes =
  Printf.sprintf "acc=%d hit=%d miss=%d ev=%d rt=%d fl=%d" accesses hits misses
    evictions read_throughs flushes

let fmt_snapshot (s : Counters.snapshot) =
  fmt_counts ~accesses:s.accesses ~hits:s.hits ~misses:s.misses
    ~evictions:s.evictions ~read_throughs:s.read_throughs ~flushes:s.flushes

let fmt_reference (c : Reference.counts) =
  fmt_counts ~accesses:c.accesses ~hits:c.hits ~misses:c.misses
    ~evictions:c.evictions ~read_throughs:c.read_throughs ~flushes:c.flushes

let fmt_dump dump =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) dump
  |> List.map (fun (i, (l : Line.t)) ->
         Printf.sprintf "%d:%b,%d,%d,%b,%d,%d,%d" i l.valid l.tag l.owner
           l.locked l.last_use l.fill_seq l.aux)
  |> String.concat "|"

(* Two generators with one stream, seeded by a draw from [rng]. *)
let twins rng =
  let seed = Rng.int rng 0x3FFFFFFF in
  (Rng.create ~seed, Rng.create ~seed)

(* The engine and the model of one cell, built from [seed]: the engine
   and the model each take one of twin streams. The returned generator
   drives the op program both sides replay. *)
let build ?(scenario = scenario) ~seed spec =
  let rng = Rng.create ~seed in
  let engine_rng, model_rng = twins rng in
  let engine = Factory.build spec scenario ~rng:engine_rng in
  let model =
    Reference.create spec ~victim_pid:scenario.Factory.victim_pid
      ~victim_lines:scenario.Factory.victim_lines ~rng:model_rng
  in
  (rng, engine, model)

(* An engine's end-of-run observables: global and per-pid counters and
   the line dump. *)
let observe ?(pids = [ 0; 1; 2 ]) (engine : Engine.t) =
  String.concat " | "
    (fmt_snapshot (Counters.global engine.Engine.counters)
     :: List.map (fun p -> fmt_snapshot (Counters.for_pid engine.Engine.counters p)) pids
    @ [ fmt_dump (Engine.dump engine) ])

let summaries ?(pids = [ 0; 1; 2 ]) (engine : Engine.t) model =
  ( observe ~pids engine,
    String.concat " | "
      (fmt_reference (Reference.counts model)
       :: List.map (fun p -> fmt_reference (Reference.counts_for_pid model p)) pids
      @ [ fmt_dump (Reference.dump model) ]) )

let addr rng = if Rng.bool rng then Rng.int rng 600 else Rng.int rng 4096

(* One scalar op drawn from [rng], applied to both sides; returns the
   two formatted observables. [weights] bounds the access/peek/flush/
   lock/unlock/window/flush-all mix (cumulative, out of 100). *)
let scalar_op rng (engine : Engine.t) model ~pid ~weights:(wa, wp, wf, wl, wu, ww) =
  let a = addr rng in
  let r = Rng.int rng 100 in
  if r < wa then
    ( fmt_outcome (engine.Engine.access ~pid a),
      fmt_outcome (Reference.access model ~pid a) )
  else if r < wp then
    (string_of_bool (engine.Engine.peek ~pid a), string_of_bool (Reference.peek model ~pid a))
  else if r < wf then
    ( string_of_bool (engine.Engine.flush_line ~pid a),
      string_of_bool (Reference.flush_line model ~pid a) )
  else if r < wl then
    ( string_of_bool (engine.Engine.lock_line ~pid a),
      string_of_bool (Reference.lock_line model ~pid a) )
  else if r < wu then
    ( string_of_bool (engine.Engine.unlock_line ~pid a),
      string_of_bool (Reference.unlock_line model ~pid a) )
  else if r < ww then begin
    let back = Rng.int rng 4 and fwd = Rng.int rng 4 in
    engine.Engine.set_window ~pid ~back ~fwd;
    Reference.set_window model ~pid ~back ~fwd;
    ("w", "w")
  end
  else begin
    engine.Engine.flush_all ();
    Reference.flush_all model;
    ("F", "F")
  end

(* --- mixed-op replay ---------------------------------------------------- *)

let check_cell ~seed ~steps spec =
  let name = case_name spec in
  let rng, engine, model = build ~seed spec in
  for i = 0 to steps - 1 do
    let pid = Rng.int rng 3 in
    let e, m = scalar_op rng engine model ~pid ~weights:(78, 88, 92, 95, 97, 99) in
    if e <> m then
      Alcotest.failf "%s seed=%#x op %d diverged: engine %S vs reference %S" name
        seed i e m
  done;
  let e, m = summaries engine model in
  Alcotest.(check string)
    (Printf.sprintf "%s seed=%#x final counters+dump" name seed)
    m e

(* A couple of seeds per cell at a few thousand ops each: enough random
   coverage to hit every branch (invalid-way fills, lock conflicts,
   external RP misses, full flushes) while staying well inside the
   quick-test budget. Newcache's index conflicts need addresses a
   logical space apart: "index-conflicts" below. *)
let seeds = [ 0xD1FF; 0xF0221; 0xABCDE ]
let steps = 4_000

let test_cell spec () =
  List.iter (fun seed -> check_cell ~seed ~steps spec) seeds

(* --- Newcache index conflicts --------------------------------------- *)

(* [addr] stays below 4096, inside one logical space of 8192 lines, so
   one pid's two addresses never share a logical index with different
   tags there. Here half the addresses are one of a few logical indices
   plus a multiple of [logical_lines], so an access often finds its
   (pid, logical index) held under another tag: the conflict path, which
   invalidates the holder and, when the random fill also displaces a
   valid line, reports two evictions. The other half keep the cache
   populated. The pids straddle the counters' small-pid table. *)
let conflict_pids = [| 0; 1; 2; 17; 4096 |]
let conflict_indices = [| 5; 6; 700; 8191 |]

(* Returns how many outcomes carried two evictions. *)
let check_newcache_conflicts ~seed ~steps =
  let extra_bits = 4 in
  let rng, engine, model = build ~seed (Spec.Newcache { extra_bits }) in
  let logical = engine.Engine.config.Config.lines lsl extra_bits in
  let doubles = ref 0 in
  for i = 0 to steps - 1 do
    let pid = conflict_pids.(Rng.int rng (Array.length conflict_pids)) in
    let a =
      if Rng.bool rng then addr rng
      else
        conflict_indices.(Rng.int rng (Array.length conflict_indices))
        + (logical * Rng.int rng 6)
    in
    let r = Rng.int rng 1000 in
    let e, m =
      if r < 880 then begin
        let o = engine.Engine.access ~pid a in
        if List.length (Reference.evictions o) = 2 then incr doubles;
        (fmt_outcome o, fmt_outcome (Reference.access model ~pid a))
      end
      else if r < 930 then
        ( string_of_bool (engine.Engine.peek ~pid a),
          string_of_bool (Reference.peek model ~pid a) )
      else if r < 998 then
        ( string_of_bool (engine.Engine.flush_line ~pid a),
          string_of_bool (Reference.flush_line model ~pid a) )
      else begin
        engine.Engine.flush_all ();
        Reference.flush_all model;
        ("F", "F")
      end
    in
    if e <> m then
      Alcotest.failf
        "newcache:secrand seed=%#x op %d (pid %d, addr %d) diverged: engine %S \
         vs reference %S"
        seed i pid a e m
  done;
  let e, m = summaries ~pids:(Array.to_list conflict_pids) engine model in
  Alcotest.(check string)
    (Printf.sprintf "newcache:secrand seed=%#x final counters+dump" seed)
    m e;
  !doubles

let test_newcache_conflicts () =
  let doubles =
    List.fold_left
      (fun n seed -> n + check_newcache_conflicts ~seed ~steps:20_000)
      0
      (List.init 20 (fun k -> 0xC0F1 + k))
  in
  if doubles < 10_000 then
    Alcotest.failf
      "only %d double-eviction outcomes: the conflict path went untested" doubles

(* --- SP homing over several victim ranges ------------------------------ *)

(* SP homes a line by scanning the victim's ranges. The shared scenario
   has one range, so here: two or three disjoint ranges, single-line
   ones among them, with addresses drawn at and next to every bound
   (where an off-by-one in the scan or a skipped range shows), under
   2 and 4 partitions, either victim pid, pids 0-2, and line flushes,
   full flushes and per-access Count runs between the accesses. *)
let sp_scenarios =
  [
    { Factory.victim_pid = 0; victim_lines = [ (10, 20); (300, 300) ] };
    { Factory.victim_pid = 2; victim_lines = [ (0, 0); (64, 127); (1000, 1003) ] };
    { Factory.victim_pid = 0; victim_lines = [ (5, 5); (77, 77); (500, 700) ] };
  ]

let sp_bounds (s : Factory.scenario) =
  List.concat_map
    (fun (lo, hi) ->
      List.filter (fun a -> a >= 0) [ lo - 1; lo; lo + 1; hi - 1; hi; hi + 1 ])
    s.Factory.victim_lines
  |> Array.of_list

let check_sp_homing ~seed ~scenario ~partitions policy =
  let spec = Spec.Sp { ways = 8; policy; partitions } in
  let name =
    Printf.sprintf "%s partitions=%d victim=%d seed=%#x" (case_name spec) partitions
      scenario.Factory.victim_pid seed
  in
  let rng, engine, model = build ~scenario ~seed spec in
  let bounds = sp_bounds scenario in
  let addr () =
    if Rng.bool rng then bounds.(Rng.int rng (Array.length bounds))
    else Rng.int rng 2048
  in
  for i = 0 to 2_999 do
    let pid = Rng.int rng 3 in
    let r = Rng.int rng 100 in
    let e, m =
      if r < 70 then
        let a = addr () in
        ( fmt_outcome (engine.Engine.access ~pid a),
          fmt_outcome (Reference.access model ~pid a) )
      else if r < 80 then
        let a = addr () in
        ( string_of_bool (engine.Engine.peek ~pid a),
          string_of_bool (Reference.peek model ~pid a) )
      else if r < 95 then
        let a = addr () in
        ( string_of_bool (engine.Engine.flush_line ~pid a),
          string_of_bool (Reference.flush_line model ~pid a) )
      else if r < 98 then begin
        let trace = Array.init (Rng.int rng 24) (fun _ -> addr ()) in
        let len = Array.length trace in
        let e = run_events engine ~pid ~trace ~pos:0 ~len in
        (e, model_events model ~pid ~trace ~pos:0 ~len)
      end
      else begin
        engine.Engine.flush_all ();
        Reference.flush_all model;
        ("F", "F")
      end
    in
    if e <> m then
      Alcotest.failf "%s op %d diverged: engine %S vs reference %S" name i e m
  done;
  let e, m = summaries engine model in
  Alcotest.(check string) (name ^ " final counters+dump") m e

let test_sp_homing policy () =
  List.iter
    (fun scenario ->
      List.iter
        (fun partitions ->
          List.iter
            (fun seed -> check_sp_homing ~seed ~scenario ~partitions policy)
            [ 0x5B01; 0x5B02 ])
        [ 2; 4 ])
    sp_scenarios

(* Every cell's [access_run] is its own step's loop, labelled after it —
   never a wrapper's scalar loop. *)
let expected_kernel spec =
  let policy () =
    match Spec.policy_of spec with
    | Some p -> Policy.to_string p
    | None -> assert false
  in
  match Spec.name spec with
  | "sa" | "noisy" -> "sa-" ^ policy ()
  | "rp" -> "rp-" ^ policy ()
  | arch -> arch

let test_kernel_selection () =
  List.iter
    (fun spec ->
      let engine = Factory.build spec scenario ~rng:(Rng.create ~seed:7) in
      Alcotest.(check string)
        (case_name spec ^ " run kernel")
        (expected_kernel spec) engine.Engine.run_kernel)
    (cells ())

(* --- batched-replay fuzz ------------------------------------------------ *)

(* The model side of a Count run, written out: per access, the observed
   time (the hit or miss time, plus one gaussian draw from the noise
   stream when sigma > 0) classified against the 0.5 midpoint. *)
type tally = { misses : int array; noise : Rng.t }

let tally_access t ~bin ~sigma (o : Outcome.t) =
  let mu = if Outcome.is_miss o then 1. else 0. in
  let tm = if sigma = 0. then mu else Rng.gaussian t.noise ~mu ~sigma in
  if tm > 0.5 then t.misses.(bin) <- t.misses.(bin) + 1

(* A seed-derived random program of Fill runs, Count runs and per-access
   Count runs interleaved with the scalar ops a run must straddle:
   lock/unlock, RF window rotation, line flushes, full flushes. [Error]
   names the first diverging observable: an access's hit or miss, a
   scalar op, the Count scratch after a Count run, a probe draw on the
   classification stream, the final counters or the line dump. *)
let batched_program ~seed spec =
  let rng, engine, model = build ~seed spec in
  let noise_seed = seed lxor 0x5EED1 in
  let counter = Kernel.make_counter ~bins:4 in
  counter.Kernel.noise <- Rng.create ~seed:noise_seed;
  let tally = { misses = Array.make 4 0; noise = Rng.create ~seed:noise_seed } in
  let ( let* ) = Result.bind in
  let same what e m =
    if e = m then Ok () else Error (Printf.sprintf "%s: engine %S vs reference %S" what e m)
  in
  let scratch (misses : int array) =
    String.concat ";" (List.init 4 (fun b -> string_of_int misses.(b)))
  in
  let rec go step =
    if step = 40 then Ok ()
    else begin
      let pid = Rng.int rng 3 in
      let* () =
        if Rng.int rng 100 < 55 then begin
          (* One batched run: random length (0 = must be a no-op), placed
             at a random offset inside a larger scratch so [pos] <> 0 and
             trailing slack are both exercised. *)
          let len = Rng.int rng 49 in
          let pos = Rng.int rng 4 in
          let trace = Array.init (pos + len + 2) (fun _ -> addr rng) in
          let model_run f =
            List.init len (fun k -> f (Reference.access model ~pid trace.(pos + k)))
          in
          match Rng.int rng 3 with
          | 0 ->
            engine.Engine.access_run ~pid ~trace ~pos ~len Kernel.Fill;
            ignore (model_run ignore);
            Ok ()
          | 1 ->
            let bin = Rng.int rng 4 in
            let sigma = if Rng.bool rng then 0. else 0.25 in
            counter.Kernel.bin <- bin;
            counter.Kernel.sigma <- sigma;
            engine.Engine.access_run ~pid ~trace ~pos ~len (Kernel.Count counter);
            ignore (model_run (tally_access tally ~bin ~sigma));
            same
              (Printf.sprintf "step %d Count scratch" step)
              (scratch counter.Kernel.misses) (scratch tally.misses)
          | _ ->
            let e = run_events engine ~pid ~trace ~pos ~len in
            same
              (Printf.sprintf "step %d per-access Count runs" step)
              e
              (model_events model ~pid ~trace ~pos ~len)
        end
        else
          let e, m = scalar_op rng engine model ~pid ~weights:(33, 33, 49, 65, 78, 91) in
          same (Printf.sprintf "step %d scalar op" step) e m
      in
      go (step + 1)
    end
  in
  let* () = go 0 in
  (* If either side consumed a different number of classification draws,
     the next draw diverges even when the sums happen to agree. *)
  let* () =
    same "classification stream"
      (string_of_int (Rng.int counter.Kernel.noise 1_000_000))
      (string_of_int (Rng.int tally.noise 1_000_000))
  in
  let e, m = summaries engine model in
  same "final counters+dump" e m

let test_batched_cell spec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:(case_name spec ^ " batched = scalar")
       QCheck.(int_range 0 0xFFFFFF)
       (fun seed ->
         match batched_program ~seed spec with
         | Ok () -> true
         | Error e -> QCheck.Test.fail_reportf "seed %#x: %s" seed e))

(* --- flush_all equivalence -------------------------------------------- *)

(* [flush_all] clears only the lines the slab's dirty log names, falling
   back to a full pass once the log overflows. Oracle: the full pass
   written out here — every line invalid with [owners = -1] and lock,
   aux and freq cleared, timestamps kept, every tree word zero — applied
   to a snapshot taken just before the flush. The displaced count must
   equal the snapshot's valid lines. *)
let cleared_fields (s : Slab.t) =
  let n = s.Slab.n in
  [
    ("tags", Array.make n Slab.invalid_tag);
    ("owners", Array.make n (-1));
    ("last_use", Array.copy s.Slab.last_use);
    ("fill_seq", Array.copy s.Slab.fill_seq);
    ("aux", Array.make n 0);
    ("locked", Array.make n 0);
    ("freq", Array.make n 0);
    ("tree", Array.make (n / s.Slab.ways) 0);
  ]

let fields (s : Slab.t) =
  [
    ("tags", s.Slab.tags);
    ("owners", s.Slab.owners);
    ("last_use", s.Slab.last_use);
    ("fill_seq", s.Slab.fill_seq);
    ("aux", s.Slab.aux);
    ("locked", s.Slab.locked);
    ("freq", s.Slab.freq);
    ("tree", s.Slab.tree);
  ]

let valid_lines (s : Slab.t) =
  Array.fold_left (fun n tag -> if tag >= 0 then n + 1 else n) 0 s.Slab.tags

(* Flush [engine] and compare against the oracle; [Error] names the first
   diverging field. *)
let check_flush what (engine : Engine.t) =
  let s = engine.Engine.slab in
  let want = cleared_fields s and displaced = valid_lines s in
  let before = (Counters.global engine.Engine.counters).Counters.evictions in
  engine.Engine.flush_all ();
  let got = (Counters.global engine.Engine.counters).Counters.evictions - before in
  match
    List.find_opt (fun ((_, w), (_, g)) -> w <> g) (List.combine want (fields s))
  with
  | Some ((field, _), _) -> Error (Printf.sprintf "%s: %s differs" what field)
  | None when got <> displaced ->
    Error (Printf.sprintf "%s: displaced %d, expected %d" what got displaced)
  | None when s.Slab.dirty_len <> 0 ->
    Error (Printf.sprintf "%s: dirty log not emptied" what)
  | None -> Ok ()

(* A random program of fills, line flushes, PL locks, RF window changes
   and batched Fill runs (PLRU and RE's periodic evictions come with the
   cell), flushed twice in a row mid-way (the second flush finds an
   empty cache) and once at the end. Odd seeds add
   access + flush_line cycles until the log overflows, so the full-pass
   fallback is exercised too. *)
let flush_program ~seed spec =
  let rng = Rng.create ~seed in
  let engine = Factory.build spec scenario ~rng:(Rng.split rng) in
  let s = engine.Engine.slab in
  let addr () = if Rng.bool rng then Rng.int rng 600 else Rng.int rng 4096 in
  let ops steps =
    for _ = 1 to steps do
      let pid = Rng.int rng 3 in
      match Rng.int rng 10 with
      | 0 -> ignore (engine.Engine.lock_line ~pid (addr ()))
      | 1 -> ignore (engine.Engine.flush_line ~pid (addr ()))
      | 2 ->
        engine.Engine.set_window ~pid ~back:(Rng.int rng 4) ~fwd:(Rng.int rng 4)
      | 3 ->
        let trace = Array.init (Rng.int rng 48) (fun _ -> addr ()) in
        engine.Engine.access_run ~pid ~trace ~pos:0 ~len:(Array.length trace)
          Kernel.Fill
      | _ -> ignore (engine.Engine.access ~pid (addr ()))
    done
  in
  let ( let* ) = Result.bind in
  ops (Rng.int rng 300);
  let* () = check_flush "first flush" engine in
  let* () = check_flush "flush of an empty cache" engine in
  ops (Rng.int rng 300);
  let* () =
    if seed land 1 = 0 then Ok ()
    else begin
      let cycles = ref 0 in
      let cap = Array.length s.Slab.dirty in
      while s.Slab.dirty_len <= cap && !cycles < 8 * s.Slab.n do
        incr cycles;
        (* pid 1 above the victim's ranges fills on every architecture *)
        let a = 201 + Rng.int rng 4000 in
        ignore (engine.Engine.access ~pid:1 a);
        ignore (engine.Engine.flush_line ~pid:1 a)
      done;
      ops 50;
      if s.Slab.dirty_len > cap then Ok ()
      else Error "refill cycles did not overflow the dirty log"
    end
  in
  check_flush "final flush" engine

let test_flush_cell spec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20
       ~name:(case_name spec ^ " flush_all = full pass")
       QCheck.(int_range 0 0xFFFFFF)
       (fun seed ->
         match flush_program ~seed spec with
         | Ok () -> true
         | Error e -> QCheck.Test.fail_reportf "seed %#x: %s" seed e))

(* --- reset = fresh build ------------------------------------------------ *)

(* One op drawn from [rng] on a single engine, formatted: [scalar_op]'s
   mix plus per-access Count runs, for comparing two engines with each
   other. *)
let engine_op rng (engine : Engine.t) =
  let pid = Rng.int rng 3 in
  let a = addr rng in
  match Rng.int rng 100 with
  | r when r < 70 -> fmt_outcome (engine.Engine.access ~pid a)
  | r when r < 78 -> string_of_bool (engine.Engine.peek ~pid a)
  | r when r < 84 -> string_of_bool (engine.Engine.flush_line ~pid a)
  | r when r < 88 -> string_of_bool (engine.Engine.lock_line ~pid a)
  | r when r < 90 -> string_of_bool (engine.Engine.unlock_line ~pid a)
  | r when r < 93 ->
    engine.Engine.set_window ~pid ~back:(Rng.int rng 4) ~fwd:(Rng.int rng 4);
    "w"
  | r when r < 98 ->
    let trace = Array.init (Rng.int rng 24) (fun _ -> addr rng) in
    run_events engine ~pid ~trace ~pos:0 ~len:(Array.length trace)
  | _ ->
    engine.Engine.flush_all ();
    "F"

let overflowed (s : Slab.t) = s.Slab.dirty_len > Array.length s.Slab.dirty

(* [build] makes an engine from a stream. A random prefix on one engine
   (with [burst], then Fill runs of 200 victim lines and 1024 other lines,
   enough to overflow every engine's dirty log), then [reset] on one of
   twin streams, against [build] on the other; both then run the same
   random suffix. Every op's result and the end observables must
   agree. Returns whether the reset took the overflow path. *)
let check_reset ~name ~build ~seed ~prefix ~burst =
  let rng = Rng.create ~seed in
  let engine = build (Rng.split rng) in
  let ops = Rng.split rng in
  for _ = 1 to prefix do
    ignore (engine_op ops engine)
  done;
  if burst then begin
    let fill pid trace =
      engine.Engine.access_run ~pid ~trace ~pos:0 ~len:(Array.length trace)
        Kernel.Fill
    in
    fill 0 (Array.init 200 Fun.id);
    fill 1 (Array.init 1024 (fun i -> 201 + i))
  end;
  let took_overflow = overflowed engine.Engine.slab in
  let fresh_rng, reset_rng = twins rng in
  let fresh = build fresh_rng in
  engine.Engine.reset ~rng:reset_rng;
  let suffix = Rng.int rng 0x3FFFFFFF in
  let run (e : Engine.t) =
    let ops = Rng.create ~seed:suffix in
    Array.init 400 (fun _ -> engine_op ops e)
  in
  let got = run engine in
  let want = run fresh in
  Array.iteri
    (fun i w ->
      if got.(i) <> w then
        Alcotest.failf "%s seed=%#x prefix=%d op %d after reset: %S, fresh build %S"
          name seed prefix i got.(i) w)
    want;
  Alcotest.(check string)
    (Printf.sprintf "%s seed=%#x prefix=%d counters+dump" name seed prefix)
    (observe fresh) (observe engine);
  took_overflow

(* Short prefixes leave the dirty log short; bursts overflow it: both
   reset paths must be reached, and must agree with a fresh build. *)
let reset_plans = [ (0, false); (60, false); (300, true); (1500, true) ]

let test_reset_equivalence ~name ~build () =
  List.iter
    (fun seed ->
      List.iter
        (fun (prefix, burst) ->
          let took = check_reset ~name ~build ~seed ~prefix ~burst in
          if took <> burst then
            Alcotest.failf "%s seed=%#x prefix=%d: dirty log %s" name seed prefix
              (if burst then "did not overflow" else "overflowed"))
        reset_plans)
    [ 0x2E5E7; 0x7E5E2 ]

(* The reference fuzz with resets interleaved: about one op in a hundred
   resets the engine on a new stream, and the model is recreated on its
   twin. *)
let check_cell_resets ~seed ~steps spec =
  let name = case_name spec in
  let rng, engine, model = build ~seed spec in
  let model = ref model and resets = ref 0 in
  for i = 0 to steps - 1 do
    if Rng.int rng 100 = 0 then begin
      let model_rng, engine_rng = twins rng in
      model :=
        Reference.create spec ~victim_pid:scenario.Factory.victim_pid
          ~victim_lines:scenario.Factory.victim_lines ~rng:model_rng;
      engine.Engine.reset ~rng:engine_rng;
      incr resets
    end
    else begin
      let pid = Rng.int rng 3 in
      let e, m =
        scalar_op rng engine !model ~pid ~weights:(78, 88, 92, 95, 97, 99)
      in
      if e <> m then
        Alcotest.failf "%s seed=%#x op %d (after %d resets) diverged: engine %S \
                        vs reference %S"
          name seed i !resets e m
    end
  done;
  if !resets = 0 then Alcotest.failf "%s seed=%#x: no reset drawn" name seed;
  let e, m = summaries engine !model in
  Alcotest.(check string)
    (Printf.sprintf "%s seed=%#x final counters+dump" name seed)
    m e

let test_cell_resets spec () =
  List.iter (fun seed -> check_cell_resets ~seed ~steps spec) seeds

(* The cleaning game's batched count (one engine, reset per sample)
   equals its one-sample games on the same split streams, at k around
   the way count and at k = 300. *)
let test_count_wins_matches_clean_once () =
  let samples = 8 in
  List.iter
    (fun spec ->
      let w =
        (Factory.build spec scenario ~rng:(Rng.create ~seed:0)).Engine.config
          .Config.ways
      in
      List.iter
        (fun k ->
          let seed = Hashtbl.hash (case_name spec, k) in
          let rng = Rng.create ~seed in
          let sum = ref 0 in
          for _ = 1 to samples do
            if Cachesec_attacks.Cleaner.clean_once spec ~rng:(Rng.split rng) ~accesses:k
            then incr sum
          done;
          Alcotest.(check int)
            (Printf.sprintf "%s k=%d" (case_name spec) k)
            !sum
            (Cachesec_attacks.Cleaner.count_wins spec ~accesses:k ~samples
               ~rng:(Rng.create ~seed)))
        [ w - 1; w; 4 * w; 300 ])
    (cells ())

(* --- the slab scans against naive list definitions ------------------- *)

(* Each engine step inlines [Slab]'s scan loops, so a loop that drops a
   tie or reads past [stop] is named here rather than found by the fuzz.
   The oracles are list definitions: the first index in the range that
   satisfies the test, and the first index in the (non-empty) range that
   holds the extreme value. *)

let range i stop = List.init (max 0 (stop - i)) (fun k -> i + k)

let naive_first ok i stop =
  Option.value ~default:(-1) (List.find_opt ok (range i stop))

let naive_extreme pick (a : int array) i stop =
  let cands = List.map (fun j -> (j, a.(j))) (range i stop) in
  let v = List.fold_left (fun m (_, x) -> pick m x) (snd (List.hd cands)) cands in
  fst (List.find (fun (_, x) -> x = v) cands)

(* Small values so that ties, repeated tags and invalid (negative) tags
   are common; [i] and [stop] range over the whole array, so empty and
   reversed ranges occur. *)
let scan_input =
  QCheck.make
    ~print:(fun (a, o, i, stop, x) ->
      Printf.sprintf "a=[%s] owners=[%s] i=%d stop=%d x=%d"
        (String.concat ";" (Array.to_list (Array.map string_of_int a)))
        (String.concat ";" (Array.to_list (Array.map string_of_int o)))
        i stop x)
    QCheck.Gen.(
      int_bound 12 >>= fun n ->
      array_size (return n) (int_range (-1) 4) >>= fun a ->
      array_size (return n) (int_bound 2) >>= fun o ->
      int_bound n >>= fun i ->
      int_bound n >>= fun stop ->
      int_range (-1) 4 >|= fun x -> (a, o, i, stop, x))

let scan_qcheck name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name scan_input prop)

let slab_scan_tests =
  [
    scan_qcheck "scan_tag = first match" (fun (a, _, i, stop, x) ->
        Slab.scan_tag a x i stop = naive_first (fun j -> a.(j) = x) i stop);
    scan_qcheck "scan_tag_owned = first match" (fun (a, o, i, stop, x) ->
        Slab.scan_tag_owned a o x 1 i stop
        = naive_first (fun j -> a.(j) = x && o.(j) = 1) i stop);
    scan_qcheck "scan_invalid = first negative" (fun (a, _, i, stop, _) ->
        Slab.scan_invalid a i stop = naive_first (fun j -> a.(j) < 0) i stop);
    scan_qcheck "scan_min = first minimum" (fun (a, _, i, stop, _) ->
        QCheck.assume (i < stop);
        Slab.scan_min a i stop = naive_extreme min a i stop);
    scan_qcheck "scan_max = first maximum" (fun (a, _, i, stop, _) ->
        QCheck.assume (i < stop);
        Slab.scan_max a i stop = naive_extreme max a i stop);
    Alcotest.test_case "range edges and ties" `Quick (fun () ->
        let a = [| 5; 3; 7; 3; 7 |] in
        let check = Alcotest.(check int) in
        check "match at stop - 1" 2 (Slab.scan_tag a 7 0 3);
        check "stop is exclusive" (-1) (Slab.scan_tag a 7 0 2);
        check "empty range" (-1) (Slab.scan_tag a 5 1 1);
        check "invalid at stop - 1" 2 (Slab.scan_invalid [| 1; 1; -1 |] 0 3);
        check "invalid past stop" (-1) (Slab.scan_invalid [| 1; 1; -1 |] 0 2);
        check "min: first of a tie" 1 (Slab.scan_min a 0 5);
        check "max: first of a tie" 2 (Slab.scan_max a 0 5);
        check "min: stop is exclusive" 0 (Slab.scan_min a 0 1);
        check "max at stop - 1" 2 (Slab.scan_max [| 1; 2; 9 |] 0 3);
        check "one-element range" 4 (Slab.scan_min a 4 5));
  ]

let wrappers =
  [
    ( "hierarchy:l1+rp",
      fun rng ->
        let l2 = Factory.build Spec.paper_rp scenario ~rng:(Rng.split rng) in
        Hierarchy.engine (Hierarchy.create ~l2 ~rng ()) );
  ]

let () =
  Alcotest.run "kernels"
    [
      ( "selection",
        [
          Alcotest.test_case "auto picks the monomorphized kernel" `Quick
            test_kernel_selection;
        ] );
      ( "differential-fuzz",
        List.map
          (fun spec ->
            Alcotest.test_case (case_name spec) `Quick (test_cell spec))
          (cells ()) );
      ( "index-conflicts",
        [ Alcotest.test_case "newcache:secrand" `Quick test_newcache_conflicts ] );
      ( "sp-homing",
        List.map
          (fun p ->
            Alcotest.test_case ("sp:" ^ Policy.to_string p) `Quick
              (test_sp_homing p))
          Policy.all );
      ("batched-fuzz", List.map test_batched_cell (cells ()));
      ("slab-scans", slab_scan_tests);
      ("flush-equivalence", List.map test_flush_cell (cells ()));
      ( "reset",
        List.map
          (fun spec ->
            let name = case_name spec in
            Alcotest.test_case (name ^ " = fresh build") `Quick
              (test_reset_equivalence ~name ~build:(fun rng ->
                   Factory.build spec scenario ~rng)))
          (cells ())
        @ List.map
            (fun (name, build) ->
              Alcotest.test_case (name ^ " = fresh build") `Quick
                (test_reset_equivalence ~name ~build))
            wrappers
        @ List.map
            (fun spec ->
              Alcotest.test_case (case_name spec ^ " fuzz with resets") `Quick
                (test_cell_resets spec))
            (cells ())
        @ [
            Alcotest.test_case "count_wins = sum of clean_once" `Quick
              test_count_wins_matches_clean_once;
          ] );
    ]
