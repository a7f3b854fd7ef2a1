(* Capture the CURRENT harness's throughput as the regression
   baselines. bench/main.exe renders every later run of each suite
   against these files (the vs-base columns), so re-run this only when
   you intend to move the goalposts (e.g. after landing a perf PR, to
   re-baseline for the next one):

     dune exec bench/baseline.exe                        # all sections
     dune exec bench/baseline.exe -- --section cache
     dune exec bench/baseline.exe -- --section attacks \
       --attacks-out bench/BENCH_attacks.baseline.json
     make baseline            # all sections
     make baseline-cache      # any single section

   NOTE: bench/BENCH_cache.seed.json and bench/BENCH_attacks.seed.json
   are NOT re-recorded here — they are the frozen goalposts behind
   bench/main.exe's hard gates (the pre-slab seed engine's numbers for
   "gate bench_cache"; the pre-batching harness's v1 numbers for
   "gate bench_attacks"), and move only with an intentional goalpost
   change committed by hand.

   The e2e section records the sequential-vs-pipelined campaign
   wall-clocks (quick scale) of the host it runs on — including its
   core count, so a later reader can judge what the numbers could
   demonstrate — followed by the adaptive-stopping arms, whose rows
   feed the adaptive table's vs-base column. *)

open Cachesec_bench

(* The sections are Suite.all: --section parsing, the usage string,
   --list-sections, the --NAME-out flags and the Makefile's baseline-%
   targets (which just forward $* as --section NAME) all derive from it,
   so adding a suite there is the whole change. *)
let names = List.map (fun (s : Suite.t) -> s.name) Suite.all
let out_flag (s : Suite.t) = "--" ^ s.name ^ "-out"

let usage () =
  Printf.eprintf
    "usage: baseline.exe [--section %s|all] %s [--list-sections]\n"
    (String.concat "|" names)
    (String.concat " "
       (List.map (fun s -> Printf.sprintf "[%s PATH]" (out_flag s)) Suite.all));
  exit 2

let () =
  (* Serve-bench server children re-exec this executable; intercept the
     sentinel argv before our own flag parsing sees it. *)
  Serve_bench.child_entry ();
  let selected = ref None (* None = all *) in
  let outs = List.map (fun (s : Suite.t) -> (out_flag s, ref s.baseline)) Suite.all in
  let rec parse = function
    | [] -> ()
    | "--list-sections" :: _ ->
      List.iter print_endline names;
      exit 0
    | "--section" :: v :: rest ->
      (match v with
      | "all" -> selected := None
      | v when List.mem v names -> selected := Some v
      | v ->
        Printf.eprintf "baseline.exe: unknown section %S (expected %s or all)\n"
          v (String.concat ", " names);
        usage ());
      parse rest
    | flag :: path :: rest when List.mem_assoc flag outs ->
      List.assoc flag outs := path;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* jobs:0 = one worker per core, so the e2e rows record what this host
     can actually demonstrate (its core count rides along in the [cores]
     field); the other suites run single-domain whatever the setting. *)
  let ctx = Cachesec_runtime.Run.(with_jobs 0 default) in
  List.iter
    (fun (s : Suite.t) ->
      let wanted = match !selected with None -> true | Some n -> n = s.name in
      if wanted then begin
        let out = !(List.assoc (out_flag s) outs) in
        let o = s.run ctx in
        Bench_record.write ~schema:s.schema ~path:out o.rows;
        print_string o.table;
        Printf.printf "%s baseline written to %s\n%!" s.name out
      end)
    Suite.all
