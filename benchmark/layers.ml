(* Per-layer metrics of a traced run: the program's own telemetry
   (campaign spans, scheduler batch events, driver counters) regrouped
   by layer, plus probes that time each layer's public entry points on
   inputs drawn from the workload after it finished.

   Every workload reports every metric, so that the traced runs of all
   workloads share one schema: a layer a workload does not exercise
   reports zero counts and shares, while its probes still time it. Counts
   of in-process workloads are per pass. A share is a fraction of the
   time the work took: an attack class's share is its part of all
   scheduler batch time; the [est_share] of a layer is probe cost times
   an exact count, divided by the CPU time of the process doing the
   work (this process, or the daemon for serve-explore). *)

open Cachesec_stats
open Cachesec_cache
open Cachesec_crypto
open Cachesec_attacks
open Cachesec_analysis
open Cachesec_experiments
open Cachesec_telemetry
module Protocol = Cachesec_serve.Protocol
module Router = Cachesec_serve.Router

(* Inputs the probes draw from: what the workload ran on. *)
type probe_inputs = {
  specs : Spec.t array;
  cells : (Spec.t * Attack_type.t) array;
  ks : int array;  (** pre-PAS attacker access counts *)
  lines : string array;  (** closed-form query lines *)
  seed : int;
}

type serve_obs = {
  frames : int;  (** frames in the timed window *)
  hits : float;
  misses : float;
  memo_size : float;
  bytes_per_query : float;
  daemon_cpu_s : float;
  client_cpu_s : float;
  serve_wall_s : float;  (** daemon lifetime the CPU times cover *)
  p50_s : float;
  p99_s : float;
}

type obs = {
  workers : int;  (** pool workers *)
  passes : int;  (** passes in the traced window; 0 for serve-explore *)
  wall_s : float;  (** wall time of the traced window *)
  busy_s : float;  (** pool busy seconds over it *)
  cpu_s : float;  (** CPU seconds of the process doing the work *)
  analysis_calls : (string * float) list;
      (** closed-form evaluations per pass (serve: in total), by probe *)
  agreement : float;
      (** fraction of outputs agreeing with the closed-form oracle *)
  serve : serve_obs option;
  probe : probe_inputs;
}

let classes =
  [
    ("collision:", "collision");
    ("evict-time:", "evict_time");
    ("prime-probe:", "prime_probe");
    ("flush-reload:", "flush_reload");
    ("cleaning-game:", "cleaning");
  ]

let class_of name =
  List.find_map
    (fun (prefix, c) ->
      if String.starts_with ~prefix name then Some c else None)
    classes

(* --- probes ----------------------------------------------------------- *)

type probed = {
  setup_s : float;
  build_s : float;
  flush_all_s : float;
  cold_access_s : float;
  warm_access_s : float;
  aes_s : float;
  draw_s : float;
  closed_s : (string * float) list;
  route_hit_s : float;
  decode_s : float;
  encode_s : float;
}

let probe (p : probe_inputs) =
  (* Parked pool workers would tax every minor collection of these
     single-domain loops with a stop-the-world handshake, and the heap
     the workload left would bill its collection to the allocating
     probes. *)
  Cachesec_runtime.Pool.quiesce ();
  Gc.compact ();
  let per_call = Measure.per_call in
  let nspec = Array.length p.specs in
  let spec i = p.specs.(i mod nspec) in
  let setups = Array.map (fun s -> Setup.make ~seed:p.seed s) p.specs in
  let rng = Rng.create ~seed:p.seed in
  let plain = Array.init 64 (fun _ -> Victim.random_plaintext rng) in
  let sc = Aes.create_scratch () in
  let dst = Bytes.create 16 in
  let trace = Array.make Aes.trace_length 0 in
  let key = Victim.key setups.(0).Setup.victim in
  let aes_s =
    per_call ~n:4000 (fun i ->
        Aes.encrypt_traced_into sc key ~src:plain.(i land 63) ~dst ~trace)
  in
  (* Each spec's victim encryption trace, as the cache lines it reads. *)
  let lines =
    Array.map
      (fun (s : Setup.t) ->
        let v = s.Setup.victim in
        Aes.encrypt_traced_into sc (Victim.key v) ~src:plain.(0) ~dst ~trace;
        Array.map (Aes_layout.line_of_packed (Victim.layout v)) trace)
      setups
  in
  let engine i = setups.(i mod nspec).Setup.engine in
  let count = Kernel.Count (Kernel.make_counter ~bins:1) in
  let replay i =
    (engine i).Engine.access_run ~pid:0 ~trace:lines.(i mod nspec) ~pos:0
      ~len:Aes.trace_length count
  in
  let flush_all_s = per_call ~n:1000 (fun i -> (engine i).Engine.flush_all ()) in
  let cold_s =
    per_call ~n:500 (fun i ->
        (engine i).Engine.flush_all ();
        replay i)
  in
  let warm_s = per_call ~n:1000 replay in
  let per_access s = s /. float_of_int Aes.trace_length in
  let cells = p.cells in
  let cell i = cells.(i mod Array.length cells) in
  let nk = Array.length p.ks in
  let closed_s =
    [
      ("pas", per_call ~n:200 (fun i ->
           let s, a = cell i in
           ignore (Sys.opaque_identity (Attack_models.pas a s ()))));
      ("prepas", per_call ~n:5000 (fun i ->
           ignore
             (Sys.opaque_identity
                (Prepas.for_spec (spec i) ~k:p.ks.(i / nspec mod nk)))));
      ("resilience", per_call ~n:200 (fun i ->
           let s, a = cell i in
           ignore (Sys.opaque_identity (Resilience.classify s a))));
      ("table", per_call ~n:20 (fun i ->
           ignore
             (Sys.opaque_identity (Pas_tables.rows_for (snd (cell i)) ()))));
    ]
  in
  let router = Router.create () in
  let nl = Array.length p.lines in
  let line i = p.lines.(i mod nl) in
  let replies =
    Array.map
      (fun l ->
        match Router.route router l with
        | Router.Now enc -> (
          match Protocol.decode_reply enc with
          | Ok r -> r
          | Error e -> failwith ("probe: undecodable reply: " ^ e))
        | Router.Sim _ | Router.Quit _ -> failwith "probe: not a closed form")
      p.lines
  in
  {
    setup_s =
      per_call ~n:100 (fun i ->
          ignore (Sys.opaque_identity (Setup.make ~seed:(p.seed + i) (spec i))));
    build_s =
      per_call ~n:200 (fun i ->
          ignore
            (Sys.opaque_identity
               (Factory.build (spec i) Factory.default_scenario ~rng)));
    flush_all_s;
    cold_access_s = per_access (cold_s -. flush_all_s);
    warm_access_s = per_access warm_s;
    aes_s;
    draw_s = per_call ~n:100_000 (fun _ -> ignore (Rng.int rng 256));
    closed_s;
    route_hit_s =
      per_call ~n:20_000 (fun i -> ignore (Router.route router (line i)));
    decode_s =
      per_call ~n:1000 (fun i -> ignore (Protocol.decode_query (line i)));
    encode_s =
      per_call ~n:2000 (fun i ->
          ignore (Protocol.encode_reply replies.(i mod nl)));
  }

(* --- the trace, regrouped by layer ------------------------------------ *)

type trace_totals = {
  mutable batches : int;
  mutable attack_batches : int;  (** batches of attack campaigns: one Setup each *)
  mutable campaigns : int;
  mutable attack_campaigns : int;
  mutable batch_s : float;  (** time inside scheduler batches *)
  mutable inline_s : float;
      (** of which in single-batch campaigns, which the scheduler runs on
          the submitting domain instead of the pool *)
  mutable cap : float;
  class_s : (string, float) Hashtbl.t;
  class_trials : (string, float) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
}

let totals events =
  let t =
    {
      batches = 0;
      attack_batches = 0;
      campaigns = 0;
      attack_campaigns = 0;
      batch_s = 0.;
      inline_s = 0.;
      cap = 0.;
      class_s = Hashtbl.create 8;
      class_trials = Hashtbl.create 8;
      counters = Hashtbl.create 16;
    }
  in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
  in
  let class_of_span = Hashtbl.create 64 in
  let trials = Hashtbl.create 64 and caps = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      match e with
      | Span_start { id; name; _ } ->
        Option.iter
          (fun c ->
            Hashtbl.replace class_of_span id c;
            t.campaigns <- t.campaigns + 1;
            if c <> "cleaning" then t.attack_campaigns <- t.attack_campaigns + 1)
          (class_of name)
      | Batch_end { span; dur_s; total; _ } ->
        t.batches <- t.batches + 1;
        t.batch_s <- t.batch_s +. dur_s;
        if total = 1 then t.inline_s <- t.inline_s +. dur_s;
        Option.iter
          (fun c ->
            add t.class_s c dur_s;
            if c <> "cleaning" then t.attack_batches <- t.attack_batches + 1)
          (Hashtbl.find_opt class_of_span span)
      | Gauge { span; name = "trials"; value; _ } -> Hashtbl.replace trials span value
      | Gauge { span; name = "trials_cap"; value; _ } -> Hashtbl.replace caps span value
      | Counter_total { name; value } -> Hashtbl.replace t.counters name value
      | Span_end _ | Batch_start _ | Domain_busy _ | Gauge _ -> ())
    events;
  (* A fixed campaign gauges [trials] once at submit; an adaptive one
     gauges [trials_cap] at submit and the executed [trials] at await. *)
  Hashtbl.iter
    (fun span c ->
      let executed = Option.value (Hashtbl.find_opt trials span) ~default:0. in
      add t.class_trials c executed;
      t.cap <- t.cap +. Option.value (Hashtbl.find_opt caps span) ~default:executed)
    class_of_span;
  t

let ratio a b = if b > 0. then a /. b else 0.

(* [latency_s]: the traced run's [latency_ms], in seconds. *)
let metrics ~events ~latency_s (o : obs) =
  let t = totals events in
  let pr = probe o.probe in
  let per_pass x = ratio x (float_of_int o.passes) in
  let counter name =
    per_pass (float_of_int (Option.value (Hashtbl.find_opt t.counters name) ~default:0))
  in
  let class_trials c =
    Option.value (Hashtbl.find_opt t.class_trials c) ~default:0.
  in
  let class_s c = Option.value (Hashtbl.find_opt t.class_s c) ~default:0. in
  let trials = List.fold_left (fun a (_, c) -> a +. class_trials c) 0. classes in
  let attack_trials = trials -. class_trials "cleaning" in
  let hits = counter "cache.hits" and misses = counter "cache.misses" in
  let closed c = List.assoc c pr.closed_s in
  let analysis_s =
    List.fold_left (fun a (c, n) -> a +. (n *. closed c)) 0. o.analysis_calls
  in
  (* Estimated seconds per pass over [cpu_s] per pass (serve: totals). *)
  let est_share s =
    if o.passes > 0 then ratio s (per_pass o.cpu_s) else ratio s o.cpu_s
  in
  let us s = s *. 1e6 and ns s = s *. 1e9 in
  let sv f = match o.serve with Some s -> f s | None -> 0. in
  let generic =
    Array.fold_left
      (fun n s ->
        let e = Factory.build s Factory.default_scenario ~rng:(Rng.create ~seed:0) in
        if e.Engine.run_kernel = Kernel.generic then n + 1 else n)
      0 o.probe.specs
  in
  [
    ("runtime.batches", per_pass (float_of_int t.batches), "count");
    ("runtime.util", ratio o.busy_s (float_of_int o.workers *. o.wall_s), "ratio");
    ("runtime.trials_per_batch", ratio trials (float_of_int t.batches), "count");
    ("runtime.inline_share", ratio t.inline_s t.batch_s, "ratio");
    ("experiments.campaigns", per_pass (float_of_int t.campaigns), "count");
    ("experiments.trials", per_pass trials, "count");
    ("experiments.trials_ratio", ratio trials t.cap, "ratio");
    ("experiments.agreement", o.agreement, "ratio");
    ("experiments.setup_us", us pr.setup_s, "us");
    ( "experiments.est_share",
      est_share
        (per_pass (float_of_int (t.attack_batches + t.attack_campaigns))
        *. pr.setup_s),
      "ratio" );
  ]
  @ List.concat_map
      (fun (_, c) ->
        [
          ("attacks." ^ c ^ ".trials", per_pass (class_trials c), "count");
          ("attacks." ^ c ^ ".share", ratio (class_s c) t.batch_s, "ratio");
        ])
      classes
  @ [
      (* Pool busy time outside any batch: task and queue overhead. *)
      ( "attacks.unattributed_share",
        ratio (o.busy_s -. (t.batch_s -. t.inline_s)) o.busy_s,
        "ratio" );
      ("cache.accesses", counter "cache.accesses", "count");
      ("cache.hits", hits, "count");
      ("cache.misses", misses, "count");
      ("cache.evictions", counter "cache.evictions", "count");
      ("cache.flushes", counter "cache.flushes", "count");
      ("cache.miss_ratio", ratio misses (hits +. misses), "ratio");
      ("cache.generic_specs", float_of_int generic, "count");
      ("cache.flush_all_ns", ns pr.flush_all_s, "ns");
      ("cache.cold_access_ns", ns pr.cold_access_s, "ns");
      ("cache.warm_access_ns", ns pr.warm_access_s, "ns");
      ("cache.build_us", us pr.build_s, "us");
      (* A collision trial flushes the whole cache once; a cleaning
         sample builds one engine. *)
      ( "cache.est_share",
        est_share
          ((hits *. pr.warm_access_s)
          +. (misses *. pr.cold_access_s)
          +. (per_pass (class_trials "collision") *. pr.flush_all_s)
          +. (per_pass (class_trials "cleaning") *. pr.build_s)),
        "ratio" );
      (* Every attack trial encrypts exactly once. *)
      ("crypto.encryptions", per_pass attack_trials, "count");
      ("crypto.aes_ns", ns pr.aes_s, "ns");
      ("crypto.est_share", est_share (per_pass attack_trials *. pr.aes_s), "ratio");
      ("stats.draw_ns", ns pr.draw_s, "ns");
      ("analysis.pas_us", us (closed "pas"), "us");
      ("analysis.prepas_us", us (closed "prepas"), "us");
      ("analysis.resilience_us", us (closed "resilience"), "us");
      ("analysis.table_us", us (closed "table"), "us");
      ( "analysis.computes",
        List.fold_left (fun a (_, n) -> a +. n) 0. o.analysis_calls,
        "count" );
      ("analysis.est_share", est_share analysis_s, "ratio");
      ("serve.frames", sv (fun s -> float_of_int s.frames), "count");
      ("serve.hits", sv (fun s -> s.hits), "count");
      ("serve.hit_ratio", sv (fun s -> ratio s.hits (s.hits +. s.misses)), "ratio");
      ("serve.memo_size", sv (fun s -> s.memo_size), "count");
      ("serve.route_hit_ns", ns pr.route_hit_s, "ns");
      ("serve.decode_ns", ns pr.decode_s, "ns");
      ("serve.encode_ns", ns pr.encode_s, "ns");
      ("serve.bytes_per_query", sv (fun s -> s.bytes_per_query), "B");
      ("serve.daemon_cpu_share", sv (fun s -> ratio s.daemon_cpu_s s.serve_wall_s), "ratio");
      ("serve.client_cpu_share", sv (fun s -> ratio s.client_cpu_s s.serve_wall_s), "ratio");
      ("serve.tail_ratio", sv (fun s -> ratio s.p99_s s.p50_s), "ratio");
      ("telemetry.traced_latency_ms", latency_s *. 1e3, "ms");
      ("telemetry.events", float_of_int (List.length events), "count");
    ]
