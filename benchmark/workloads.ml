(* The four workloads. Each drives the program through its public entry
   points only — Validation.cells and Driver.submit_*/await in this
   process, and the pas-tool serve protocol over a Unix socket — on
   inputs made from the seed, and checks what comes back. *)

open Cachesec_stats
open Cachesec_cache
open Cachesec_analysis
open Cachesec_experiments
open Cachesec_runtime
open Cachesec_telemetry
module Protocol = Cachesec_serve.Protocol
module Router = Cachesec_serve.Router
module Memo = Cachesec_serve.Memo

let names = [ "matrix-full"; "matrix-adaptive"; "engine-sweep"; "serve-explore" ]

(* Two workers, the host's core count: `pas-tool validate --jobs 2` and
   `pas-tool serve --jobs 2`. *)
let jobs = 2

(* [Tiny] instances exist for the self-test only. *)
type size = Full | Tiny

type run = {
  seed : int;
  seconds : float;  (** length of the timed window *)
  size : size;
  tm : Telemetry.t;  (** [Telemetry.null] unless this is the traced run *)
}

type result = {
  units : float array;
      (** seconds per timed unit of work: a pass, or for serve-explore the
          mean frame round trip over a block of frames *)
  setups : float array;  (** seconds of each set-up *)
  peak_rss_mb : float;
      (** peak resident memory (VmHWM) of the process doing the work *)
  attempted : int;
  failed : int;
  digest : string;
  extra : (string * float * string) list;  (** printed, not bounded *)
  obs : Layers.obs;
}

let ways = function
  | Spec.Sa { ways; _ }
  | Spec.Sp { ways; _ }
  | Spec.Pl { ways; _ }
  | Spec.Nomo { ways; _ }
  | Spec.Rp { ways; _ }
  | Spec.Rf { ways; _ }
  | Spec.Re { ways; _ }
  | Spec.Noisy { ways; _ } -> ways
  | Spec.Newcache _ -> Config.standard.Config.ways

let label spec =
  Spec.name spec ^ ":"
  ^ match Spec.policy_of spec with Some p -> Policy.to_string p | None -> "secrand"

(* Every architecture under every replacement policy: 8 x 7 + Newcache. *)
let all_specs =
  List.concat_map
    (fun s ->
      match Spec.policy_of s with
      | None -> [ s ]
      | Some _ -> List.map (Spec.with_policy s) Policy.all)
    Spec.all_paper

let pas_line spec attack =
  Protocol.encode_query
    (Protocol.Pas
       {
         spec;
         config = Config.v ~line_bytes:64 ~lines:512 ~ways:(ways spec);
         attack;
         cold = false;
       })

(* --- set-up of the in-process workloads -------------------------------- *)

let probe_flag = "--setup-probe"

(* Entry of the set-up child: process start (runtime and module
   initialisation) plus the worker pool, then "ready" on stdout. Every
   executable linking this library calls it first. *)
let setup_probe_entry () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = probe_flag then begin
    Pool.ensure ~workers:jobs;
    Pool.await (Pool.submit Fun.id);
    (* Flushed now: at exit the pool joins its workers before stdout is
       flushed, and that is not set-up. *)
    print_string "ready\n";
    flush stdout;
    exit 0
  end

let setup_probe () =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let t0 = Measure.now () in
  let pid = Unix.create_process exe [| exe; probe_flag |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let dt = Measure.now () -. t0 in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 when line = "ready" -> dt
  | _ -> failwith "set-up probe failed"

let setup_count = function Full -> 15 | Tiny -> 1

(* --- in-process workloads ----------------------------------------------- *)

type pass_out = {
  items : string array;  (** one canonical line per cell or campaign *)
  trials : int;
  cap : int;  (** the trial budget ([trials] unless stopped early) *)
  agree : int;  (** checks agreeing with the closed-form prediction *)
  checks : int;
}

(* One untimed warm-up pass, then timed passes until [seconds] elapsed. *)
let passes r pass =
  let warm = pass 0 in
  let start = Measure.now () in
  let rec go i acc =
    let t0 = Measure.now () in
    let out = pass i in
    let t1 = Measure.now () in
    let acc = (t1 -. t0, out) :: acc in
    if t1 -. start >= r.seconds then List.rev acc else go (i + 1) acc
  in
  (warm, go 1 [])

let ctx_of r ~parent =
  Run.with_parent parent (Run.make ~jobs ~telemetry:r.tm ~quick:true ~seed:r.seed ())

let serial_ctx r = Run.make ~quick:true ~seed:r.seed ()

(* [spot] recomputes one seed-chosen item of the pass serially and
   unpipelined — an independent execution order whose result must be
   bit-identical. *)
let in_process r ~pass ~spot ~analysis_calls ~probe ~extra =
  let setups = Array.init (setup_count r.size) (fun _ -> setup_probe ()) in
  let busy0 = Pool.busy_seconds () in
  let cpu0 = Measure.self_cpu_s () in
  let t0 = Measure.now () in
  let warm, timed =
    passes r (fun i ->
        Telemetry.with_span r.tm (Printf.sprintf "bench:pass:%d" i) (fun sp ->
            pass (ctx_of r ~parent:sp)))
  in
  let wall_s = Measure.now () -. t0 in
  let busy_s = Pool.busy_seconds () -. busy0 in
  let cpu_s = Measure.self_cpu_s () -. cpu0 in
  let n = Array.length warm.items in
  let mismatches out =
    let m = ref 0 in
    Array.iteri (fun i item -> if item <> warm.items.(i) then incr m) out.items;
    !m + abs (Array.length out.items - n)
  in
  let spot_index, spot_item = spot (serial_ctx r) in
  let units = Array.of_list (List.map fst timed) in
  let all = warm :: List.map snd timed in
  let agreement = float_of_int warm.agree /. float_of_int warm.checks in
  {
    units;
    setups;
    peak_rss_mb = Measure.status_mb "VmHWM";
    attempted = (n * List.length all) + 1;
    failed =
      List.fold_left (fun a o -> a + mismatches o) 0 all
      + if spot_item = warm.items.(spot_index) then 0 else 1;
    digest =
      Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list warm.items)));
    extra =
      ("bench.passes", float_of_int (List.length timed), "count")
      :: ("bench.pass_median_ms", Measure.median units *. 1e3, "ms")
      :: ("bench.trials_per_pass", float_of_int warm.trials, "count")
      :: ("experiments.agreement", agreement, "ratio")
      :: extra warm;
    obs =
      {
        Layers.workers = jobs;
        passes = List.length all;
        wall_s;
        busy_s;
        cpu_s;
        analysis_calls = analysis_calls warm;
        agreement;
        serve = None;
        probe;
      };
  }

(* --- matrix-full and matrix-adaptive ------------------------------------ *)

let cell_item (c : Validation.cell) =
  Printf.sprintf "%s %s recovered=%b separation=%h trials=%d ci=%h" c.arch
    (Attack_type.short c.attack) c.recovered c.separation c.trials
    c.ci_half_width

let of_cells cells =
  {
    items = Array.of_list (List.map cell_item cells);
    trials = Validation.total_trials cells;
    cap = Validation.total_caps cells;
    agree = List.length (List.filter (fun c -> c.Validation.agrees) cells);
    checks = List.length cells;
  }

(* Validation.cells' own order: architectures x attacks. *)
let combos ?policy size =
  let spec s = match policy with Some p -> Spec.with_policy s p | None -> s in
  match size with
  | Full ->
    List.concat_map
      (fun s -> List.map (fun a -> (spec s, a)) Attack_type.all)
      Spec.all_paper
  | Tiny ->
    [
      (spec Spec.paper_sa, Attack_type.Flush_and_reload);
      (spec Spec.paper_newcache, Attack_type.Prime_and_probe);
    ]

(* The full matrix is exactly `pas-tool validate --quick --jobs 2`. *)
let matrix_cells r ?policy ?adaptive ctx =
  match r.size with
  | Full -> Validation.cells ?policy ?adaptive ctx
  | Tiny ->
    Driver.await_all
      (List.map
         (fun (s, a) -> Validation.submit_cell ?adaptive ctx s a)
         (combos ?policy r.size))

let matrix_probe r cs =
  let cs = Array.of_list cs in
  {
    Layers.specs = Array.of_list (List.sort_uniq compare (Array.to_list (Array.map fst cs)));
    cells = cs;
    ks = [| 1; 8; 32 |];
    lines = Array.map (fun (s, a) -> pas_line s a) cs;
    seed = r.seed;
  }

let matrix_calls out =
  let n = float_of_int out.checks in
  [ ("pas", n); ("resilience", n) ]

let matrix_full r =
  let cs = combos r.size in
  in_process r
    ~pass:(fun ctx -> of_cells (matrix_cells r ctx))
    ~spot:(fun ctx ->
      let i = r.seed mod List.length cs in
      let s, a = List.nth cs i in
      (i, cell_item (Validation.cell ctx s a)))
    ~analysis_calls:matrix_calls ~probe:(matrix_probe r cs)
    ~extra:(fun _ -> [])

(* Run-to-confidence at a 0.01 half-width, 95% confidence. *)
let adaptive = { Validation.confidence = 0.95; ci_width = 0.01 }

(* Three non-default policies, one per kind of replacement state —
   recency, frequency, tree bits — keep a pass near three seconds. *)
let policies = function
  | Full -> [ Policy.Lru; Policy.Lfu; Policy.Plru ]
  | Tiny -> [ Policy.Lru ]

let matrix_adaptive r =
  let ps = policies r.size in
  let cs = List.concat_map (fun p -> combos ~policy:p r.size) ps in
  in_process r
    ~pass:(fun ctx ->
      of_cells
        (List.concat_map (fun policy -> matrix_cells r ~policy ~adaptive ctx) ps))
    ~spot:(fun ctx ->
      let i = r.seed mod List.length cs in
      let s, a = List.nth cs i in
      (i, cell_item (Validation.cell ~adaptive ctx s a)))
    ~analysis_calls:matrix_calls ~probe:(matrix_probe r cs)
    ~extra:(fun out ->
      [ ("bench.trials_cap_per_pass", float_of_int out.cap, "count") ])

(* --- engine-sweep ------------------------------------------------------- *)

let sweep_specs = function
  | Full -> all_specs
  | Tiny -> [ Spec.with_policy Spec.paper_sa Policy.Lru; Spec.paper_rp ]

(* Prime-and-probe trials and cleaning-game samples per campaign: two
   scheduler batches each (256 and 250 per batch), so every campaign
   runs on the pool; one batch would run inline on the submitting
   domain. *)
let sweep_sizes = function Full -> (300, 300) | Tiny -> (260, 260)

type campaign = Probe of Spec.t | Clean of Spec.t * int
type outcome = Recovered of bool | Wins of float

let campaigns size =
  List.concat_map
    (fun s ->
      let w = ways s in
      Probe s :: List.map (fun k -> Clean (s, k)) [ w - 1; w; 4 * w ])
    (sweep_specs size)

let submit_campaign r ctx i c =
  let pp_trials, samples = sweep_sizes r.size in
  let ctx = Run.with_seed (Rng.derive_seed r.seed i) ctx in
  match c with
  | Probe s ->
    let cfg =
      {
        Cachesec_attacks.Prime_probe.default_config with
        Cachesec_attacks.Prime_probe.trials = pp_trials;
        lock_victim_tables = (match s with Spec.Pl _ -> true | _ -> false);
      }
    in
    Driver.map_pending
      (fun (res : Cachesec_attacks.Prime_probe.result) ->
        ( Printf.sprintf "pp %s recovered=%b best=%d separation=%h scores=%s"
            (label s) res.nibble_recovered res.best_candidate res.separation
            (Digest.to_hex
               (Digest.string
                  (String.concat ","
                     (Array.to_list
                        (Array.map (Printf.sprintf "%h") res.scores))))),
          Recovered res.nibble_recovered ))
      (Driver.submit_prime_probe ctx s cfg)
  | Clean (s, k) ->
    Driver.map_pending
      (fun v ->
        (Printf.sprintf "clean %s k=%d wins=%h" (label s) k v, Wins v))
      (Driver.submit_cleaning_game ctx s ~accesses:k ~samples)

(* The closed-form prediction a campaign's outcome is checked against:
   prime-and-probe leaks iff Resilience classifies it Low; a cleaning
   game wins at the exact pre-PAS rate, within 0.05. *)
let predict = function
  | Probe s ->
    Recovered (Resilience.classify s Attack_type.Prime_and_probe = Resilience.Low)
  | Clean (s, k) -> Wins (Prepas.for_spec s ~k)

let agrees predicted outcome =
  match (predicted, outcome) with
  | Recovered p, Recovered o -> p = o
  | Wins p, Wins o -> Float.abs (o -. p) <= 0.05
  | Recovered _, Wins _ | Wins _, Recovered _ -> false

let engine_sweep r =
  let cs = Array.of_list (campaigns r.size) in
  let specs = Array.of_list (sweep_specs r.size) in
  let pp_trials, samples = sweep_sizes r.size in
  (* Outside the timed passes: the checks are not the program's work. *)
  let predicted = Array.map predict cs in
  let pass ctx =
    let parent = ctx.Run.parent in
    let pending =
      Array.mapi
        (fun i c ->
          let name =
            match c with
            | Probe s -> "bench:campaign:prime-probe:" ^ label s
            | Clean (s, k) -> Printf.sprintf "bench:campaign:cleaning:%s:%d" (label s) k
          in
          let sp = Telemetry.span r.tm ~parent name in
          (sp, submit_campaign r (Run.with_parent sp ctx) i c))
        cs
    in
    let outs =
      Array.map
        (fun (sp, p) ->
          let v = Driver.await p in
          Telemetry.close_span r.tm sp;
          v)
        pending
    in
    let trials = Array.length specs * (pp_trials + (3 * samples)) in
    {
      items = Array.map fst outs;
      trials;
      cap = trials;
      agree =
        Array.fold_left ( + ) 0
          (Array.mapi (fun i (_, o) -> if agrees predicted.(i) o then 1 else 0) outs);
      checks = Array.length outs;
    }
  in
  in_process r ~pass
    ~spot:(fun ctx ->
      let i = r.seed mod Array.length cs in
      (i, fst (Driver.await (submit_campaign r ctx i cs.(i)))))
    ~analysis_calls:(fun _ -> [])
    ~probe:
      {
        Layers.specs;
        cells = Array.map (fun s -> (s, Attack_type.Prime_and_probe)) specs;
        ks =
          Array.of_list
            (List.sort_uniq compare
               (List.filter_map
                  (function Clean (_, k) -> Some k | Probe _ -> None)
                  (Array.to_list cs)));
        lines = Array.map (fun s -> pas_line s Attack_type.Prime_and_probe) specs;
        seed = r.seed;
      }
    ~extra:(fun _ -> [])

(* --- serve-explore ------------------------------------------------------ *)

let with_ways spec w =
  match spec with
  | Spec.Sa r -> Spec.Sa { r with ways = w }
  | Spec.Sp r -> Spec.Sp { r with ways = w }
  | Spec.Pl r -> Spec.Pl { r with ways = w }
  | Spec.Nomo r -> Spec.Nomo { r with ways = w }
  | Spec.Rp r -> Spec.Rp { r with ways = w }
  | Spec.Rf r -> Spec.Rf { r with ways = w }
  | Spec.Re r -> Spec.Re { r with ways = w }
  | Spec.Noisy r -> Spec.Noisy { r with ways = w }
  | Spec.Newcache _ -> spec

(* The closed-form question space: every architecture under every
   policy and way count (Newcache under several index widths), asked for
   its PAS at 28 geometries, its resilience verdict and its pre-PAS at
   k = 0..511; plus the all-architecture PAS tables. ~180k questions, a
   bigger space than the daemon's 65,536-entry memo. *)
let grid_specs =
  List.concat_map
    (fun base ->
      match base with
      | Spec.Newcache _ ->
        List.map (fun b -> Spec.Newcache { extra_bits = b }) [ 2; 3; 4; 5; 6 ]
      | _ ->
        List.concat_map
          (fun p -> List.map (with_ways (Spec.with_policy base p)) [ 1; 2; 4; 8; 16 ])
          Policy.all)
    Spec.all_paper

let grid_lines size =
  let geometries =
    List.concat_map
      (fun lines -> List.map (fun lb -> (lines, lb)) [ 16; 32; 64; 128 ])
      [ 64; 128; 256; 512; 1024; 2048; 4096 ]
  in
  let config ~ways (lines, line_bytes) = Config.v ~line_bytes ~lines ~ways in
  let per_spec spec =
    List.concat_map
      (fun g ->
        List.map
          (fun attack () ->
            Protocol.Pas
              { spec; config = config ~ways:(ways spec) g; attack; cold = false })
          Attack_type.all)
      geometries
    @ List.map
        (fun attack () -> Protocol.Resilience { spec; attack; cold = false })
        Attack_type.all
    @ List.init 512 (fun k () -> Protocol.Prepas { spec; k; cold = false })
  in
  let tables =
    List.concat_map
      (fun attack ->
        List.concat_map
          (fun w ->
            List.map
              (fun g () ->
                Protocol.Table { attack; config = config ~ways:w g; cold = false })
              geometries)
          [ 1; 2; 4; 8; 16 ])
      Attack_type.all
  in
  let questions = List.concat_map per_spec grid_specs @ tables in
  let questions =
    match size with
    | Full -> questions
    | Tiny -> List.filteri (fun i _ -> i mod 97 = 0) questions
  in
  (* Geometries the cache model rejects are not questions. *)
  List.filter_map
    (fun q ->
      match Protocol.encode_query (q ()) with
      | line -> Some line
      | exception Invalid_argument _ -> None)
    questions

(* Every grid question the in-process router answers without an error,
   with that answer: the oracle for the daemon's replies. *)
let grid_answers size =
  let lines = grid_lines size in
  let router = Router.create ~max_memo:16 () in
  let answered =
    List.filter_map
      (fun l ->
        match Router.route router l with
        | Router.Now enc when not (String.starts_with ~prefix:"error" enc) ->
          Some (l, enc)
        | Router.Now _ | Router.Sim _ | Router.Quit _ -> None)
      lines
  in
  (Array.of_list (List.map fst answered), Array.of_list (List.map snd answered))

(* Nothing records which questions clients of `pas-tool serve` ask. The
   USAGE recipe asks one question of each closed-form verb, so every
   verb gets the same share of the queries: an assumption, stated in
   README.md beside the measured shares. The grid's own proportions
   would make four queries in five prepas, only because each spec has
   512 values of k. *)
let verbs = [| "pas"; "prepas"; "resilience"; "table" |]

let verb_index line =
  let v = List.hd (String.split_on_char ' ' line) in
  let rec find i = if verbs.(i) = v then i else find (i + 1) in
  find 0

(* Chosen so that ~14% of queries miss the daemon's memo, keeping its
   eviction path in the workload; at 1.0 the hit ratio was 0.935. *)
let zipf_exponent = 0.8

(* Zipf over [keys], popularity ranks assigned by a seeded permutation:
   rank r is drawn with probability proportional to r^-[zipf_exponent]. *)
type zipf = { cdf : float array; key_of_rank : int array }

let zipf keys ~seed =
  let n = Array.length keys in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** zipf_exponent));
    cdf.(r) <- !acc
  done;
  Array.iteri (fun i c -> cdf.(i) <- c /. !acc) cdf;
  { cdf; key_of_rank = Array.map (Array.get keys) (Rng.permutation (Rng.create ~seed) n) }

let draw z rng =
  let u = Rng.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  z.key_of_rank.(!lo)

(* One Zipf per verb over that verb's keys; a query picks its verb
   uniformly, then its key. *)
let mix verb_of_key ~seed =
  Array.mapi
    (fun v _ ->
      let keys = ref [] in
      Array.iteri (fun k vk -> if vk = v then keys := k :: !keys) verb_of_key;
      zipf (Array.of_list (List.rev !keys)) ~seed:(Rng.derive_seed seed (1 + v)))
    verbs

let draw_query mix rng = draw mix.(Rng.int rng (Array.length mix)) rng

(* Which verbs the daemon's closed-form computes went to: the queries,
   in the order sent, replayed through a FIFO memo of the daemon's size
   (the library's own [Memo]), counting the misses of each verb. *)
let misses_by_verb lines verb_of_key sent =
  let memo = Memo.create () in
  let misses = Array.make (Array.length verbs) 0 in
  for i = 0 to (String.length sent / 4) - 1 do
    let k = Int32.to_int (String.get_int32_le sent (4 * i)) in
    if Memo.find memo lines.(k) = None then begin
      misses.(verb_of_key.(k)) <- misses.(verb_of_key.(k)) + 1;
      Memo.add memo lines.(k) ""
    end
  done;
  misses

let frame_queries = 16
let connections = 2

(* Set-ups, warm-up frames (enough misses to fill the memo), frames
   whose replies enter the digest, and frames per timed block (~0.6 s). *)
let serve_sizes = function
  | Full -> (15, 32768, 4096, 16384)
  | Tiny -> (2, 64, 16, 8)

(* Frame spans kept in the trace: a whole run has ~10^5 frames. *)
let max_frame_spans = 10_000

type conn = {
  fd : Unix.file_descr;
  mutable sent : float;
  mutable expected : string;
  mutable index : int;
  mutable span : Telemetry.span;
}

let mismatched_lines reply expected =
  let a = String.split_on_char '\n' reply
  and b = String.split_on_char '\n' expected in
  let rec go n = function
    | x :: xs, y :: ys -> go (if x = y then n else n + 1) (xs, ys)
    | rest, [] | [], rest -> n + List.length rest
  in
  go 0 (a, b)

let sample arr n =
  let len = Array.length arr in
  if len <= n then arr else Array.init n (fun i -> arr.(i * len / n))

let serve_explore r =
  let t_gen = Measure.now () in
  let lines, replies = grid_answers r.size in
  let n = Array.length lines in
  let verb_of_key = Array.map verb_index lines in
  let mix = mix verb_of_key ~seed:r.seed in
  let rng = Rng.create ~seed:(Rng.derive_seed r.seed 0) in
  let gen_s = Measure.now () -. t_gen in
  let traced = not (Telemetry.is_null r.tm) in
  let nsetups, warm_frames, digest_frames, block_frames = serve_sizes r.size in
  let setups =
    Array.init (nsetups - 1) (fun _ ->
        let d, dt = Daemon.start () in
        Daemon.stop d;
        dt)
  in
  let metrics =
    if traced then Some "results/BENCHMARK_trace_serve-explore.daemon.json" else None
  in
  let d, last_setup = Daemon.start ?metrics () in
  let t_daemon = Measure.now () in
  let client_cpu0 = Measure.self_cpu_s () in
  let frames = ref 0 and queries = ref 0 and bytes = ref 0 and failed = ref 0 in
  let digest_buf = Buffer.create (1 lsl 20) in
  let lat = ref (Array.make 65536 0.) and nlat = ref 0 in
  let record dt =
    if !nlat = Array.length !lat then
      lat := Array.append !lat (Array.make (Array.length !lat) 0.);
    !lat.(!nlat) <- dt;
    incr nlat
  in
  let sent_by_verb = Array.make (Array.length verbs) 0 in
  (* Every key sent, in order, for [misses_by_verb]: traced runs only. *)
  let sent = Buffer.create (if traced then 1 lsl 24 else 0) in
  let send c =
    let ks = Array.init frame_queries (fun _ -> draw_query mix rng) in
    Array.iter
      (fun k ->
        let v = verb_of_key.(k) in
        sent_by_verb.(v) <- sent_by_verb.(v) + 1;
        if traced then Buffer.add_int32_le sent (Int32.of_int k))
      ks;
    let payload = String.concat "\n" (Array.to_list (Array.map (Array.get lines) ks)) in
    c.expected <- String.concat "\n" (Array.to_list (Array.map (Array.get replies) ks));
    c.index <- !frames;
    incr frames;
    queries := !queries + frame_queries;
    bytes := !bytes + String.length payload + 4;
    if c.index < max_frame_spans then c.span <- Telemetry.span r.tm "bench:frame";
    c.sent <- Measure.now ();
    Protocol.write_frame c.fd payload
  in
  let receive c =
    let reply =
      match Protocol.read_frame c.fd with
      | Some p -> p
      | None -> failwith "pas-tool serve closed the connection"
    in
    let dt = Measure.now () -. c.sent in
    Telemetry.close_span r.tm c.span;
    c.span <- Telemetry.null_span;
    bytes := !bytes + String.length reply + 4;
    if reply <> c.expected then failed := !failed + mismatched_lines reply c.expected;
    if c.index < digest_frames then begin
      Buffer.add_string digest_buf reply;
      Buffer.add_char digest_buf '\n'
    end;
    dt
  in
  let body () =
    let conns =
      Array.init connections (fun _ ->
          {
            fd = Daemon.connect_fd d;
            sent = 0.;
            expected = "";
            index = 0;
            span = Telemetry.null_span;
          })
    in
    Fun.protect
      ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns)
      (fun () ->
        (* Closed loop: each connection sends its next frame as soon as
           its previous reply arrived; the daemon answers in order, so
           replies are read round-robin. *)
        Array.iter send conns;
        let step ~timed =
          Array.iter
            (fun c ->
              let dt = receive c in
              if timed then record dt;
              send c)
            conns
        in
        for _ = 1 to warm_frames / connections do
          step ~timed:false
        done;
        (* Timed blocks until the window has elapsed. A block's unit
           time is its mean frame round trip: [connections] frames are
           always in flight, so that is connections × block time ÷
           frames. *)
        let start = Measure.now () in
        let timed0 = !nlat in
        let blocks = ref [] in
        while Measure.now () -. start < r.seconds || !blocks = [] do
          let t0 = Measure.now () in
          for _ = 1 to block_frames / connections do
            step ~timed:true
          done;
          let dt = Measure.now () -. t0 in
          blocks := (float_of_int connections *. dt /. float_of_int block_frames) :: !blocks
        done;
        Array.iter (fun c -> ignore (receive c)) conns;
        (Array.of_list (List.rev !blocks), !nlat - timed0))
  in
  let fetch_stats () =
    match Protocol.decode_reply (Daemon.ask d "stats") with
    | Ok (Protocol.Stats_v kvs) -> kvs
    | _ -> failwith "pas-tool serve: bad stats reply"
  in
  let (units, timed_frames, stats), daemon_cpu_s, peak_rss_mb, serve_wall_s =
    match
      let units, timed_frames = body () in
      (units, timed_frames, fetch_stats ())
    with
    | v ->
      let cpu = Measure.cpu_s d.Daemon.pid in
      let peak = Measure.status_mb ~pid:d.Daemon.pid "VmHWM" in
      let wall = Measure.now () -. t_daemon in
      Daemon.stop d;
      (v, cpu, peak, wall)
    | exception e ->
      Daemon.reap d;
      raise e
  in
  let client_cpu_s = Measure.self_cpu_s () -. client_cpu0 in
  let latencies = Array.sub !lat 0 !nlat in
  let sorted = Measure.sorted latencies in
  let stat k = try List.assoc k stats with Not_found -> 0. in
  let hits = stat "hits" and misses = stat "misses" in
  (* The daemon's closed-form computes, split over the verbs. *)
  let analysis_calls =
    if not traced then []
    else begin
      let by_verb = misses_by_verb lines verb_of_key (Buffer.contents sent) in
      let total = float_of_int (Array.fold_left ( + ) 0 by_verb) in
      Array.to_list
        (Array.mapi
           (fun v m -> (verbs.(v), stat "closed" *. float_of_int m /. total))
           by_verb)
    end
  in
  let us p = Measure.percentile sorted p *. 1e6 in
  (* The closed forms answer for some specs no engine can be built for
     (Nomo reserving all its ways); the probes build engines. *)
  let specs =
    sample
      (Array.of_list
         (List.filter
            (fun s ->
              match Setup.make s with
              | _ -> true
              | exception Invalid_argument _ -> false)
            grid_specs))
      64
  in
  let attacks = Array.of_list Attack_type.all in
  let agreement = 1. -. (float_of_int !failed /. float_of_int !queries) in
  {
    units;
    setups = Array.append setups [| last_setup |];
    peak_rss_mb;
    attempted = !queries;
    failed = !failed;
    digest = Digest.to_hex (Digest.string (Buffer.contents digest_buf));
    extra =
      [
        ("lat_p50_us", us 50., "us");
        ("lat_p99_us", us 99., "us");
        ("lat_p999_us", us 99.9, "us");
        ("lat_samples", float_of_int (Array.length latencies), "count");
        ("bench.blocks", float_of_int (Array.length units), "count");
        ("bench.gen_s", gen_s, "s");
        ("bench.grid_keys", float_of_int n, "count");
        ("serve.daemon_cpu_s", daemon_cpu_s, "s");
        ("experiments.agreement", agreement, "ratio");
      ]
      @ Array.to_list
          (Array.mapi
             (fun v c ->
               ( "bench.share." ^ verbs.(v),
                 float_of_int c /. float_of_int !queries,
                 "ratio" ))
             sent_by_verb);
    obs =
      {
        Layers.workers = jobs;
        passes = 0;
        wall_s = serve_wall_s;
        busy_s = 0.;
        cpu_s = daemon_cpu_s;
        analysis_calls;
        agreement;
        serve =
          Some
            {
              Layers.frames = timed_frames;
              hits;
              misses;
              memo_size = stat "memo_size";
              bytes_per_query = float_of_int !bytes /. float_of_int !queries;
              daemon_cpu_s;
              client_cpu_s;
              serve_wall_s;
              p50_s = Measure.percentile sorted 50.;
              p99_s = Measure.percentile sorted 99.;
            };
        probe =
          {
            Layers.specs;
            cells = Array.mapi (fun i s -> (s, attacks.(i mod Array.length attacks))) specs;
            ks = [| 0; 1; 8; 32; 128; 511 |];
            lines = sample lines 4096;
            seed = r.seed;
          };
      };
  }

let run name r =
  match name with
  | "matrix-full" -> matrix_full r
  | "matrix-adaptive" -> matrix_adaptive r
  | "engine-sweep" -> engine_sweep r
  | "serve-explore" -> serve_explore r
  | _ -> invalid_arg ("unknown workload " ^ name)
