(* Differential fuzz: monomorphized kernels vs the generic fallback.

   The monomorphized per-(arch, policy) access kernels under
   lib/cache/kernels/ must be bit-identical to the generic dispatching
   path they replace — same per-op outcomes (including eviction
   payloads), same RNG draw order, same counters, same final line dump.
   The hotpath golden suite pins both against ONE frozen workload; this
   suite hammers the equivalence with RANDOM workloads (mixed pids,
   flushes, locks, window changes, full flushes) so a divergence that
   the frozen trace happens to miss still gets caught.

   Every factory cell is built twice from identical derived seeds —
   [Factory.build ~kernel:Generic] vs [~kernel:Auto] — and replayed
   through the same op stream. Cells without a monomorphized scalar
   kernel (sp, nomo, rf, re) run both arms of this suite through the
   same generic access by construction; they stay in the matrix so the
   cell list never needs editing when a kernel is added for them. Their
   batched run loops are covered by the second suite.

   A second QCheck suite fuzzes the batched [access_run] twins against
   the scalar-looping generic fallback in all three accumulation modes
   (Fill / Count / Trace) with runs that straddle locks, RF window
   rotations and full flushes — see "batched-replay differential fuzz"
   below. *)

open Cachesec_stats
open Cachesec_cache

let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 200) ] }

let case_name spec =
  match Spec.policy_of spec with
  | Some p -> Spec.name spec ^ ":" ^ Replacement.policy_to_string p
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
    (Outcome.evictions o);
  Buffer.contents b

let fmt_snapshot (s : Counters.snapshot) =
  Printf.sprintf "acc=%d hit=%d miss=%d ev=%d rt=%d fl=%d" s.accesses s.hits
    s.misses s.evictions s.read_throughs s.flushes

let fmt_dump dump =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) dump
  |> List.map (fun (i, (l : Line.t)) ->
         Printf.sprintf "%d:%b,%d,%d,%b,%d,%d,%d" i l.valid l.tag l.owner
           l.locked l.last_use l.fill_seq l.aux)
  |> String.concat "|"

(* Replay a [seed]-derived random mixed-op stream; returns one formatted
   observable per op (so a mismatch pinpoints the op) plus the final
   counters/dump summary. The op stream depends only on [seed], and the
   engine's own RNG only on the identical [Rng.create ~seed |> split]
   prefix — the two arms see byte-identical inputs. *)
let replay ~seed ~steps kernel spec =
  let rng = Rng.create ~seed in
  let engine = Factory.build ~kernel spec scenario ~rng:(Rng.split rng) in
  let ops =
    List.init steps (fun _ ->
        let pid = Rng.int rng 3 in
        let addr = if Rng.bool rng then Rng.int rng 600 else Rng.int rng 4096 in
        let r = Rng.int rng 100 in
        if r < 78 then Printf.sprintf "a%d/%d:%s" pid addr
            (fmt_outcome (engine.Engine.access ~pid addr))
        else if r < 88 then
          Printf.sprintf "p%d/%d:%b" pid addr (engine.Engine.peek ~pid addr)
        else if r < 92 then
          Printf.sprintf "f%d/%d:%b" pid addr (engine.Engine.flush_line ~pid addr)
        else if r < 95 then
          Printf.sprintf "l%d/%d:%b" pid addr (engine.Engine.lock_line ~pid addr)
        else if r < 97 then
          Printf.sprintf "u%d/%d:%b" pid addr (engine.Engine.unlock_line ~pid addr)
        else if r < 99 then begin
          let back = Rng.int rng 4 and fwd = Rng.int rng 4 in
          engine.Engine.set_window ~pid ~back ~fwd;
          Printf.sprintf "w%d/%d.%d" pid back fwd
        end
        else begin
          engine.Engine.flush_all ();
          "F"
        end)
  in
  let summary =
    String.concat " | "
      [
        fmt_snapshot (engine.Engine.counters ());
        fmt_snapshot (engine.Engine.counters_for 0);
        fmt_snapshot (engine.Engine.counters_for 1);
        fmt_snapshot (engine.Engine.counters_for 2);
        fmt_dump (engine.Engine.dump ());
      ]
  in
  (engine.Engine.kernel, ops, summary)

let check_cell ~seed ~steps spec =
  let name = case_name spec in
  let _, generic_ops, generic_sum = replay ~seed ~steps Kernel.Generic spec in
  let kernel, auto_ops, auto_sum = replay ~seed ~steps Kernel.Auto spec in
  List.iteri
    (fun i (g, a) ->
      if g <> a then
        Alcotest.failf "%s seed=%#x op %d diverged (%s kernel): generic %S vs auto %S"
          name seed i kernel g a)
    (List.combine generic_ops auto_ops);
  Alcotest.(check string)
    (Printf.sprintf "%s seed=%#x final counters+dump (%s kernel)" name seed
       kernel)
    generic_sum auto_sum

(* A couple of seeds per cell at a few thousand ops each: enough random
   coverage to hit every branch (invalid-way fills, lock conflicts,
   external RP misses, CAM conflicts, full flushes) while staying well
   inside the quick-test budget. *)
let seeds = [ 0xD1FF; 0xF0221; 0xABCDE ]
let steps = 4_000

let test_cell spec () =
  List.iter (fun seed -> check_cell ~seed ~steps spec) seeds

(* The monomorphized cells must actually exercise a kernel — guard
   against a silent fallback to generic making the diff test vacuous.
   Returns the (scalar [kernel], batched [run_kernel]) labels of an auto
   build. *)
let expected_kernel spec =
  let policy_suffix () =
    match Spec.policy_of spec with
    | Some p -> Replacement.policy_to_string p
    | None -> assert false
  in
  (* pl/rp carry kernels only for the original three policies; the new
     registry entries fall back to the generic path there. *)
  let original_three () =
    match Spec.policy_of spec with
    | Some (Replacement.Lru | Replacement.Random | Replacement.Fifo) -> true
    | _ -> false
  in
  let both k = Some (k, k) in
  match Spec.name spec with
  | "sa" -> both ("sa-" ^ policy_suffix ())
  | "pl" when original_three () -> both ("pl-" ^ policy_suffix ())
  | "rp" when original_three () -> both ("rp-" ^ policy_suffix ())
  | "newcache" -> both "newcache"
  | "noisy" -> both ("sa-" ^ policy_suffix ())
  (* Generic scalar access, but one batched Fill/Count loop per
     architecture under every policy. *)
  | ("sp" | "nomo" | "rf" | "re") as arch -> Some (Kernel.generic, arch)
  | _ -> None (* generic-only (arch, policy) cells *)

let test_kernel_selection () =
  List.iter
    (fun spec ->
      let build kernel =
        let rng = Rng.create ~seed:7 in
        Factory.build ~kernel spec scenario ~rng:(Rng.split rng)
      in
      let auto = build Kernel.Auto in
      let forced = build Kernel.Generic in
      let scalar = build Kernel.Scalar in
      Alcotest.(check string)
        (case_name spec ^ " forced generic")
        Kernel.generic forced.Engine.kernel;
      Alcotest.(check string)
        (case_name spec ^ " forced generic run")
        Kernel.generic forced.Engine.run_kernel;
      match expected_kernel spec with
      | Some (k, r) ->
        Alcotest.(check string) (case_name spec ^ " auto kernel") k
          auto.Engine.kernel;
        (* The batched path must be live — a silent fall-back to the
           generic run loop would leave every digest green (bit-identical
           by contract) while quietly un-batching the attack hot paths. *)
        Alcotest.(check string) (case_name spec ^ " auto run kernel") r
          auto.Engine.run_kernel;
        Alcotest.(check bool)
          (case_name spec ^ " auto run kernel is batched")
          true
          (auto.Engine.run_kernel <> Kernel.generic);
        (* [Scalar] = monomorphized per-access kernel looped by the
           generic run wrapper: the bench's pre-batching cost model. An
           architecture without a scalar kernel loops its generic
           access, so the batched fuzz below keeps an independent
           oracle. *)
        Alcotest.(check string) (case_name spec ^ " scalar kernel") k
          scalar.Engine.kernel;
        Alcotest.(check string)
          (case_name spec ^ " scalar run label")
          (if k = Kernel.generic then Kernel.generic else Kernel.scalar)
          scalar.Engine.run_kernel
      | None ->
        Alcotest.(check string)
          (case_name spec ^ " auto falls back to generic")
          Kernel.generic auto.Engine.kernel;
        Alcotest.(check string)
          (case_name spec ^ " auto run falls back to generic")
          Kernel.generic auto.Engine.run_kernel)
    (cells ())

(* --- batched-replay differential fuzz ------------------------------- *)

(* [access_run] under [Auto] (the batched per-(arch, policy) run
   kernels) vs under [Generic] ([run_of_scalar] looping the generic
   scalar access — the differential oracle), hammered with seed-derived
   random programs of batched runs in all three modes interleaved with
   exactly the scalar ops a run must straddle: lock/unlock, RF window
   rotation, line flushes, full flushes. Observables per program: every
   Trace outcome, the Count scratch (true/classified/time sums), a
   draw-count probe on the classification stream, scalar-access
   outcomes, and the final counters + line dump. *)

let batched_program ~seed kernel spec =
  let rng = Rng.create ~seed in
  let engine = Factory.build ~kernel spec scenario ~rng:(Rng.split rng) in
  let noise = Rng.create ~seed:(seed lxor 0x5EED1) in
  let counter = Kernel.make_counter ~bins:4 in
  counter.Kernel.noise <- noise;
  let buf = Buffer.create 4096 in
  let addr rng = if Rng.bool rng then Rng.int rng 600 else Rng.int rng 4096 in
  for _ = 1 to 40 do
    let pid = Rng.int rng 3 in
    let r = Rng.int rng 100 in
    if r < 55 then begin
      (* One batched run: random length (0 = must be a no-op), placed at
         a random offset inside a larger scratch so [pos] <> 0 and
         trailing slack are both exercised. *)
      let len = Rng.int rng 49 in
      let pos = Rng.int rng 4 in
      let trace = Array.init (pos + len + 2) (fun _ -> addr rng) in
      match Rng.int rng 3 with
      | 0 ->
        engine.Engine.access_run ~pid ~trace ~pos ~len Kernel.Fill;
        Buffer.add_string buf (Printf.sprintf "F%d/%d;" pid len)
      | 1 ->
        counter.Kernel.bin <- Rng.int rng 4;
        counter.Kernel.sigma <- (if Rng.bool rng then 0. else 0.25);
        engine.Engine.access_run ~pid ~trace ~pos ~len (Kernel.Count counter);
        Buffer.add_string buf (Printf.sprintf "C%d/%d;" pid len)
      | _ ->
        let out = Array.make (max len 1) Outcome.hit in
        engine.Engine.access_run ~pid ~trace ~pos ~len (Kernel.Trace out);
        Buffer.add_string buf (Printf.sprintf "T%d/" pid);
        for k = 0 to len - 1 do
          Buffer.add_string buf (fmt_outcome out.(k));
          Buffer.add_char buf ','
        done;
        Buffer.add_char buf ';'
    end
    else if r < 70 then
      Buffer.add_string buf
        (Printf.sprintf "a%s;" (fmt_outcome (engine.Engine.access ~pid (addr rng))))
    else if r < 77 then
      Buffer.add_string buf
        (Printf.sprintf "l%b;" (engine.Engine.lock_line ~pid (addr rng)))
    else if r < 83 then
      Buffer.add_string buf
        (Printf.sprintf "u%b;" (engine.Engine.unlock_line ~pid (addr rng)))
    else if r < 90 then
      Buffer.add_string buf
        (Printf.sprintf "f%b;" (engine.Engine.flush_line ~pid (addr rng)))
    else if r < 96 then begin
      let back = Rng.int rng 4 and fwd = Rng.int rng 4 in
      engine.Engine.set_window ~pid ~back ~fwd;
      Buffer.add_string buf "w;"
    end
    else begin
      engine.Engine.flush_all ();
      Buffer.add_string buf "X;"
    end
  done;
  (* Count scratch ([%h] so float sums compare bit-for-bit), then one
     probe draw — if either arm consumed a different number of
     classification draws, this value diverges even when the sums
     happen to agree. *)
  for b = 0 to 3 do
    Buffer.add_string buf
      (Printf.sprintf "c%d=%d/%d/%h;" b
         counter.Kernel.true_misses.(b)
         counter.Kernel.classified.(b)
         counter.Kernel.times.(b))
  done;
  Buffer.add_string buf (Printf.sprintf "n=%d;" (Rng.int noise 1_000_000));
  Buffer.add_string buf
    (String.concat " | "
       [
         fmt_snapshot (engine.Engine.counters ());
         fmt_snapshot (engine.Engine.counters_for 0);
         fmt_snapshot (engine.Engine.counters_for 1);
         fmt_snapshot (engine.Engine.counters_for 2);
         fmt_dump (engine.Engine.dump ());
       ]);
  Buffer.contents buf

let test_batched_cell spec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:(case_name spec ^ " batched = scalar")
       QCheck.(int_range 0 0xFFFFFF)
       (fun seed ->
         batched_program ~seed Kernel.Auto spec
         = batched_program ~seed Kernel.Generic spec))

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
  let before = (engine.Engine.counters ()).Counters.evictions in
  engine.Engine.flush_all ();
  let got = (engine.Engine.counters ()).Counters.evictions - before in
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
      ("batched-fuzz", List.map test_batched_cell (cells ()));
      ("flush-equivalence", List.map test_flush_cell (cells ()));
    ]
