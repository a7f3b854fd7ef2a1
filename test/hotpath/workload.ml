(* Shared deterministic workload for the hot-path golden-trace suite.

   [digest] drives an engine through a frozen mixed op sequence
   (accesses, peeks, line flushes, lock/unlock, window changes, full
   flushes) and folds every observable — per-op outcomes including the
   eviction payload, final global and per-pid counters, and the full
   line dump — into one MD5 hex digest.

   The recorded digests under test/golden/ were produced by the
   pre-optimization (seed) engines; test_hotpath replays this exact
   workload against the current engines and demands bit-identical
   digests for all architectures x policies. Regenerate only when a
   change to simulated BEHAVIOUR (not performance) is intended:

     dune exec test/hotpath/gen_golden.exe -- test/golden/hotpath.golden *)

open Cachesec_stats
open Cachesec_cache

let steps = 20_000
let workload_seed = 0x5EED_CAFE

(* The one accessor the Outcome re-encoding is allowed to change: the
   displaced [(owner, line)] pairs of one access, in eviction order. *)
let eviction_list (o : Outcome.t) = Outcome.evictions o

let fmt_outcome buf (o : Outcome.t) =
  Buffer.add_char buf (match o.Outcome.event with Outcome.Hit -> 'H' | Outcome.Miss -> 'M');
  Buffer.add_char buf (if o.Outcome.cached then 'c' else 'u');
  (match o.Outcome.fetched with
  | None -> Buffer.add_char buf '-'
  | Some l -> Buffer.add_string buf (string_of_int l));
  List.iter
    (fun (pid, line) ->
      Buffer.add_char buf 'e';
      Buffer.add_string buf (string_of_int pid);
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int line))
    (eviction_list o);
  Buffer.add_char buf ';'

let fmt_bool buf b = Buffer.add_char buf (if b then 't' else 'f')

let fmt_snapshot buf (s : Counters.snapshot) =
  Buffer.add_string buf
    (Printf.sprintf "acc=%d hit=%d miss=%d ev=%d rt=%d fl=%d|" s.accesses
       s.hits s.misses s.evictions s.read_throughs s.flushes)

let fmt_dump buf dump =
  List.iter
    (fun (i, (l : Line.t)) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%b,%d,%d,%b,%d,%d,%d|" i l.valid l.tag l.owner
           l.locked l.last_use l.fill_seq l.aux))
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) dump)

let digest build =
  let rng = Rng.create ~seed:workload_seed in
  let engine : Engine.t = build (Rng.split rng) in
  let buf = Buffer.create (1 lsl 18) in
  for _ = 1 to steps do
    let pid = Rng.int rng 2 in
    let addr = if Rng.bool rng then Rng.int rng 600 else Rng.int rng 4096 in
    let r = Rng.int rng 100 in
    if r < 78 then fmt_outcome buf (engine.Engine.access ~pid addr)
    else if r < 88 then fmt_bool buf (engine.Engine.peek ~pid addr)
    else if r < 94 then fmt_bool buf (engine.Engine.flush_line ~pid addr)
    else if r < 96 then fmt_bool buf (engine.Engine.lock_line ~pid addr)
    else if r < 98 then fmt_bool buf (engine.Engine.unlock_line ~pid addr)
    else if r < 99 then
      engine.Engine.set_window ~pid ~back:(Rng.int rng 4) ~fwd:(Rng.int rng 4)
    else engine.Engine.flush_all ()
  done;
  fmt_snapshot buf (Counters.global engine.Engine.counters);
  fmt_snapshot buf (Counters.for_pid engine.Engine.counters 0);
  fmt_snapshot buf (Counters.for_pid engine.Engine.counters 1);
  fmt_dump buf (Engine.dump engine);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- the engine zoo: 9 paper architectures x the full policy registry
   (Newcache contributes its single SecRAND row) + skewed + two-level
   hierarchy -- *)

let scenario = { Factory.victim_pid = 0; victim_lines = [ (0, 200) ] }

let case_name spec =
  match Spec.policy_of spec with
  | Some p -> Spec.name spec ^ ":" ^ Policy.to_string p
  | None -> Spec.name spec ^ ":secrand"

let cases () =
  let spec_cases =
    List.concat_map
      (fun spec ->
        match Spec.policy_of spec with
        | None -> [ spec ]
        | Some _ -> List.map (Spec.with_policy spec) Policy.all)
      Spec.all_paper
  in
  List.map
    (fun spec -> (case_name spec, fun rng -> Factory.build spec scenario ~rng))
    spec_cases
  @ [
      ("skewed", fun rng -> Skewed.engine (Skewed.create ~rng ()));
      ( "hierarchy:l1+sa",
        fun rng ->
          let l2 =
            Sa.engine
              (Sa.create ~config:Config.standard ~policy:Policy.Random
                 ~rng:(Rng.split rng) ())
          in
          Hierarchy.engine (Hierarchy.create ~l2 ~rng ()) );
    ]

let all_digests () = List.map (fun (name, build) -> (name, digest build)) (cases ())

(* --- golden file I/O: "name digest" per line ----------------------- *)

let write_golden ~path entries =
  let oc = open_out path in
  List.iter (fun (name, d) -> Printf.fprintf oc "%s %s\n" name d) entries;
  close_out oc

let read_golden ~path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then
         match String.index_opt line ' ' with
         | Some i ->
           entries :=
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
             :: !entries
         | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries
