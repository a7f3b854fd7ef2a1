open Cachesec_cache
open Cachesec_analysis
open Cachesec_telemetry

type stats_counters = {
  mutable closed : int;  (* closed-form computes performed *)
  mutable hits : int;  (* memo hits *)
  mutable misses : int;  (* memo misses (computed or sim-launched) *)
  mutable dedup_joins : int;  (* waiters joined onto a running campaign *)
  mutable overloaded : int;  (* queries refused by backpressure *)
  mutable sim_runs : int;  (* campaigns completed successfully *)
  mutable sim_errors : int;  (* campaigns that raised *)
}

type t = {
  memo : Memo.t;  (* canonical key -> encoded reply *)
  c : stats_counters;
  tm : Telemetry.t;
  started : float;
}

type decision =
  | Now of string
  | Sim of { key : string option; run : unit -> string }
  | Quit of string

let create ?(telemetry = Telemetry.null) ?(max_memo = 65536) () =
  {
    memo = Memo.create ~max_entries:max_memo ();
    c =
      {
        closed = 0;
        hits = 0;
        misses = 0;
        dedup_joins = 0;
        overloaded = 0;
        sim_runs = 0;
        sim_errors = 0;
      };
    tm = telemetry;
    started = Clock.now_s ();
  }

(* Every counter bump is mirrored into telemetry so [--metrics] runs of
   the daemon expose the same numbers the [stats] verb reports. *)
let bump t name field =
  field t.c;
  Telemetry.count t.tm ("serve." ^ name) 1

let note_sim_done t ~key enc =
  bump t "sim_runs" (fun c -> c.sim_runs <- c.sim_runs + 1);
  match key with None -> () | Some k -> Memo.add t.memo k enc

let note_sim_error t =
  bump t "sim_errors" (fun c -> c.sim_errors <- c.sim_errors + 1)

let note_dedup_join t =
  bump t "dedup_joins" (fun c -> c.dedup_joins <- c.dedup_joins + 1)

let note_overloaded t =
  bump t "overloaded" (fun c -> c.overloaded <- c.overloaded + 1)

let stats t =
  let qd = Cachesec_runtime.Pool.queued_tasks () in
  Telemetry.gauge t.tm "serve.queue_depth" (float_of_int qd);
  let i = float_of_int in
  [
    ("closed", i t.c.closed);
    ("hits", i t.c.hits);
    ("misses", i t.c.misses);
    ("dedup_joins", i t.c.dedup_joins);
    ("overloaded", i t.c.overloaded);
    ("sim_runs", i t.c.sim_runs);
    ("sim_errors", i t.c.sim_errors);
    ("memo_size", i (Memo.size t.memo));
    ("queue_depth", i qd);
    ("uptime_s", Clock.elapsed_s ~since:t.started);
  ]

(* Closed-form computes. Table rows are keyed by [Spec.name] (not the
   display name): reply pairs are space-separated, so values must be
   single words. *)
let compute_closed (q : Protocol.query) : Protocol.reply =
  match q with
  | Pas { spec; config; attack; cold = _ } ->
    Pas_v (Attack_models.pas ~config attack spec ())
  | Prepas { spec; k; cold = _ } -> Prepas_v (Prepas.for_spec spec ~k)
  | Resilience { spec; attack; cold = _ } ->
    let c = Resilience.combined spec attack in
    Resilience_v
      { verdict = Resilience.verdict_to_string c.Resilience.verdict;
        pas = c.Resilience.pas }
  | Table { attack; config; cold = _ } ->
    let rows = Pas_tables.rows_for ~config attack () in
    Table_v
      (List.map
         (fun r -> (Spec.name r.Pas_tables.spec, r.Pas_tables.pas))
         rows)
  | Ping | Stats | Shutdown | Validate _ -> assert false

(* The campaign thunk runs inside a pool worker. Its [Run.ctx] is
   serial ([jobs = None]), so [Validation.cell]'s scheduler takes the
   eager path and never re-enters the pool — a worker awaiting pooled
   work would be refused by [Pool.await]'s deadlock guard. *)
let sim_thunk (q : Protocol.query) () =
  match q with
  | Validate { spec; attack; seed; quick; cold = _ } ->
    let ctx = Cachesec_runtime.Run.make ~quick ~seed () in
    let cell = Cachesec_experiments.Validation.cell ctx spec attack in
    Protocol.encode_reply
      (Validate_v
         {
           pas = cell.Cachesec_experiments.Validation.pas;
           predicted_leak = cell.Cachesec_experiments.Validation.predicted_leak;
           recovered = cell.Cachesec_experiments.Validation.recovered;
           separation = cell.Cachesec_experiments.Validation.separation;
           agrees = cell.Cachesec_experiments.Validation.agrees;
         })
  | _ -> assert false

let error_reply e =
  Protocol.encode_reply (Error_ (Printexc.to_string e))

(* The memo-hit fast path: a canonical line is its own memo key
   ([decode_query (encode_query q) = Ok q]), so the memo is probed with
   the line as sent, skipping decode and key construction entirely. A
   line with [cold], an error line or a control verb never equals a
   key; any other spelling of a memoized question decodes and hits
   through [Protocol.canonical]. *)
let rec route t line =
  match Memo.find t.memo line with
  | Some enc ->
    bump t "hits" (fun c -> c.hits <- c.hits + 1);
    Now enc
  | None -> route_slow t line

and route_slow t line =
  match Protocol.decode_query line with
  | Error msg -> Now (Protocol.encode_reply (Error_ msg))
  | Ok Ping -> Now (Protocol.encode_reply Ok_)
  | Ok Stats -> Now (Protocol.encode_reply (Stats_v (stats t)))
  | Ok Shutdown -> Quit (Protocol.encode_reply Ok_)
  | Ok q -> (
    (* Answer a question the memo does not hold: a validate query
       becomes a campaign, a closed form is computed now. [key] is
       [None] for a cold query, which is never memoized. *)
    let miss key =
      match q with
      | Validate _ -> Sim { key; run = sim_thunk q }
      | _ -> (
        bump t "closed" (fun c -> c.closed <- c.closed + 1);
        match Protocol.encode_reply (compute_closed q) with
        | enc ->
          Option.iter (fun k -> Memo.add t.memo k enc) key;
          Now enc
        | exception e -> Now (error_reply e))
    in
    if Protocol.cold q then miss None
    else
      (* [Protocol.canonical] is total outside the control verbs, so
         [Option.get] cannot raise here. *)
      let key = Option.get (Protocol.canonical q) in
      match Memo.find t.memo key with
      | Some enc ->
        bump t "hits" (fun c -> c.hits <- c.hits + 1);
        Now enc
      | None ->
        bump t "misses" (fun c -> c.misses <- c.misses + 1);
        miss (Some key))
