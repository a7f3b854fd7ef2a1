open Cachesec_stats
open Cachesec_cache
open Cachesec_attacks
open Cachesec_runtime
open Cachesec_telemetry

let setup_for ~(ctx : Run.ctx) spec (b : Scheduler.batch) =
  Setup.make ~seed:(Run.batch_seed ctx b.Scheduler.index) spec

(* Adapt an in-place [merge_into] to [Adaptive]'s pure-merge shape: its
   round continuation consumes each batch partial exactly once into a
   running left accumulator, so folding the right side into the left
   and returning it is equivalent to the pure merge — without
   allocating a fresh accumulator (3 arrays + a summary per step) per
   batch. *)
let in_place merge_into a b =
  merge_into a b;
  a

(* --- pending campaigns ------------------------------------------------ *)

(* A campaign whose rounds are running on the pool but whose finalize
   has not happened yet. [await] is memoizing (value or failure), so a
   pending can be passed around and joined from exactly one place
   without double-finalizing or double-closing its span. *)
type 'a state =
  | Thunk of (unit -> 'a)
  | Value of 'a
  | Error of exn * Printexc.raw_backtrace

type 'a pending = { mutable state : 'a state }

let await p =
  match p.state with
  | Value v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  | Thunk f ->
    (match f () with
    | v ->
      p.state <- Value v;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      p.state <- Error (e, bt);
      Printexc.raise_with_backtrace e bt)

let pending_of_thunk f = { state = Thunk f }
let map_pending f p = { state = Thunk (fun () -> f (await p)) }
(* Join every pending before re-raising: a failure must not leave the
   later campaigns' spans open, or their adaptive rounds still running
   on the pool after the caller has moved on. The first failure in list
   order wins. *)
let await_all ps =
  List.map
    (fun p ->
      match await p with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    ps
  |> List.map (function
       | Ok v -> v
       | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

(* Engine counters -> telemetry, sampled once per finished batch (the
   engines' zero-alloc access path is never touched: [Counters.global]
   takes an ordinary snapshot after the batch's trial slice has run). Each
   batch owns a fresh engine, so its snapshot is exactly the batch's
   traffic, and the merged totals are jobs-invariant. *)
let sample_engine_counters tm (s : Setup.t) =
  if not (Telemetry.is_null tm) then begin
    let c = Counters.global s.Setup.engine.Engine.counters in
    Telemetry.count tm "cache.accesses" c.Counters.accesses;
    Telemetry.count tm "cache.hits" c.Counters.hits;
    Telemetry.count tm "cache.misses" c.Counters.misses;
    Telemetry.count tm "cache.evictions" c.Counters.evictions;
    Telemetry.count tm "cache.read_throughs" c.Counters.read_throughs;
    Telemetry.count tm "cache.flushes" c.Counters.flushes
  end

(* --- the campaign core -------------------------------------------------- *)

type 'a campaign = {
  value : 'a;
  trials : int;
  cap : int;
  rounds : int;
  stopped_early : bool;
  achieved : float;
}

(* Targeted campaigns shard finer than fixed ones: the geometric rounds
   need several batch boundaries inside the cap to have anywhere to
   stop. Still a pure function of the experiment definition (cap and
   the attack's default size), never of [jobs] — so adaptive runs stay
   bit-identical across job counts. Campaigns without a target keep the
   attack's own batch size. *)
let adaptive_batch ~default_batch ~cap =
  Stdlib.max 1 (Stdlib.min default_batch ((cap + 7) / 8))

(* The one campaign shape. The span opens and round 0 is dispatched at
   submit; the pending's join awaits [Adaptive]'s future, records what
   ran and finalizes. Without a target the plan's first round already
   reaches [total] ([start = total]), so the whole plan runs as one
   round and [keep_going] is never consulted. [observe] maps cumulative
   merged partials to the estimator the stopping rule tests; it sees
   the cumulative trial count because some partials (cleaning-game win
   counts) do not carry their own denominator. *)
let submit_rounds ~(ctx : Run.ctx) ~name ~default_batch ?target ~total ~shard
    ~merge ~observe ~finalize () =
  let name, cap =
    match target with
    | None -> (name, total)
    | Some t -> (name ^ ":adaptive", t.Sequential.max_trials)
  in
  if cap <= 0 then
    invalid_arg ("Driver: " ^ name ^ " needs a positive trial count");
  let tm = ctx.Run.telemetry in
  let sp = Telemetry.span tm ~parent:ctx.Run.parent name in
  Telemetry.gauge tm ~span:sp
    (if Option.is_none target then "trials" else "trials_cap")
    (float_of_int cap);
  match
    let batch_size =
      if Option.is_none target then default_batch
      else adaptive_batch ~default_batch ~cap
    in
    let start, keep_going =
      match target with
      | None -> (cap, fun ~trials:_ _ -> true)
      | Some t ->
        ( Stdlib.max batch_size t.Sequential.min_trials,
          fun ~trials merged ->
            Sequential.decide t ~trials (observe ~trials merged)
            = Sequential.Continue )
    in
    Adaptive.submit ?jobs:ctx.Run.jobs ~tm ~span:sp ~what:name ~shard ~merge
      ~keep_going
      (Adaptive.plan ~start ~total:cap ~batch_size ())
  with
  | exception e ->
    (* A bad plan or [jobs] raises here (a shard failure waits for
       [await]): close the span on the way out. *)
    Telemetry.close_span tm sp;
    raise e
  | running ->
    pending_of_thunk (fun () ->
        match Adaptive.await running with
        | exception e ->
          Telemetry.close_span tm sp;
          raise e
        | prog ->
          let trials = prog.Adaptive.trials in
          if not (Telemetry.is_null tm) then begin
            Telemetry.count tm "driver.batches" prog.Adaptive.batches_run;
            Telemetry.count tm "driver.trials" trials;
            if Option.is_some target then begin
              Telemetry.count tm "driver.trials_saved" (cap - trials);
              Telemetry.gauge tm ~span:sp "trials" (float_of_int trials)
            end
          end;
          let achieved =
            match target with
            | None -> nan
            | Some t ->
              Sequential.achieved
                (observe ~trials prog.Adaptive.merged)
                ~confidence:t.Sequential.confidence
          in
          let v =
            {
              value = finalize ~trials prog.Adaptive.merged;
              trials;
              cap;
              rounds = prog.Adaptive.rounds_run;
              stopped_early = prog.Adaptive.stopped_early;
              achieved;
            }
          in
          Telemetry.close_span tm sp;
          v)

let value p = map_pending (fun c -> c.value) p

(* --- attacks ------------------------------------------------------------- *)

(* ['p] is the attack's mergeable partial, hidden behind the
   constructor so callers see only the config and the result. *)
type ('c, 'r) attack =
  | Attack : {
      label : string;
      batch : int;
      trials : 'c -> int;
      span : Setup.t -> Scheduler.batch -> 'c -> 'p;
      merge_into : 'p -> 'p -> unit;
      observe : 'p -> Sequential.observation;
      finalize : victim:Victim.t -> 'c -> 'p -> 'r;
    }
      -> ('c, 'r) attack

(* Batch sizes are properties of the *experiment definition*, never of
   the worker count: changing [jobs] must not change the batch plan, or
   determinism across job counts is lost. They are chosen so a typical
   full-scale run yields enough batches to keep every core busy while a
   quick-scale run stays in one batch — one pool task at [jobs > 1],
   never run on the submitting domain. *)
let evict_time =
  Attack
    {
      label = "evict-time";
      batch = 4096 (* also the attacker's base-rotation period *);
      trials = (fun c -> c.Evict_time.trials);
      span =
        (fun s b c ->
          Evict_time.run_span ~victim:s.Setup.victim
            ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
            ~first:b.Scheduler.first ~count:b.Scheduler.count c);
      merge_into = Evict_time.merge_into;
      observe = Evict_time.observe;
      finalize = Evict_time.finalize;
    }

let prime_probe =
  Attack
    {
      label = "prime-probe";
      batch = 256;
      trials = (fun c -> c.Prime_probe.trials);
      span =
        (fun s b c ->
          Prime_probe.run_span ~victim:s.Setup.victim
            ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
            ~count:b.Scheduler.count c);
      merge_into = Prime_probe.merge_into;
      observe = Prime_probe.observe;
      finalize = Prime_probe.finalize;
    }

let collision =
  Attack
    {
      label = "collision";
      batch = 8192;
      trials = (fun c -> c.Collision.trials);
      span =
        (fun s b c ->
          Collision.run_span ~victim:s.Setup.victim ~rng:s.Setup.rng
            ~count:b.Scheduler.count c);
      merge_into = Collision.merge_into;
      observe = Collision.observe;
      finalize = Collision.finalize;
    }

let flush_reload =
  Attack
    {
      label = "flush-reload";
      batch = 256;
      trials = (fun c -> c.Flush_reload.trials);
      span =
        (fun s b c ->
          Flush_reload.run_span ~victim:s.Setup.victim
            ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
            ~count:b.Scheduler.count c);
      merge_into = Flush_reload.merge_into;
      observe = Flush_reload.observe;
      finalize = Flush_reload.finalize;
    }

(* Each batch samples its engine's counters and its trial count into a
   global [attacks.trials] plus a per-class [attacks.<class>.trials]
   (the label with '_' for '-'), so a TELEMETRY_*.json records how much
   attack work each campaign actually executed. The bumps sit outside
   the trial loop — the zero-allocation fast path is never
   instrumented. The reference victim handed to finalize (keys, table
   layout) is a function of the run seed only, identical across batches
   — see Setup.make. *)
let submit_attack ?target (Attack a) (ctx : Run.ctx) spec c =
  let tm = ctx.Run.telemetry in
  let per_class =
    "attacks." ^ String.map (function '-' -> '_' | ch -> ch) a.label ^ ".trials"
  in
  let shard (b : Scheduler.batch) =
    let s = setup_for ~ctx spec b in
    let p = a.span s b c in
    sample_engine_counters tm s;
    if not (Telemetry.is_null tm) then begin
      Telemetry.count tm "attacks.trials" b.Scheduler.count;
      Telemetry.count tm per_class b.Scheduler.count
    end;
    p
  in
  submit_rounds ~ctx
    ~name:(a.label ^ ":" ^ Spec.name spec)
    ~default_batch:a.batch ?target ~total:(a.trials c) ~shard
    ~merge:(in_place a.merge_into)
    ~observe:(fun ~trials:_ p -> a.observe p)
    ~finalize:(fun ~trials:_ merged ->
      a.finalize ~victim:(Setup.make ~seed:ctx.Run.seed spec).Setup.victim c
        merged)
    ()

let submit_evict_time ctx spec c = value (submit_attack evict_time ctx spec c)
let submit_prime_probe ctx spec c = value (submit_attack prime_probe ctx spec c)
let submit_collision ctx spec c = value (submit_attack collision ctx spec c)

let submit_flush_reload ctx spec c =
  value (submit_attack flush_reload ctx spec c)

(* --- pre-PAS cleaning game ------------------------------------------- *)

(* One engine per batch: [Cleaner.count_wins] builds it for the batch's
   first game and resets it before each later one, so a batch of 250
   games pays for one construction. *)
let submit_cleaning ?target (ctx : Run.ctx) spec ~accesses ~samples =
  submit_rounds ~ctx
    ~name:("cleaning-game:" ^ Spec.name spec)
    ~default_batch:250 ?target ~total:samples
    ~shard:(fun (b : Scheduler.batch) ->
      Cleaner.count_wins spec ~accesses ~samples:b.Scheduler.count
        ~rng:(Rng.create ~seed:(Run.batch_seed ctx b.Scheduler.index)))
    ~merge:( + )
    ~observe:(fun ~trials wins ->
      Sequential.Proportion { successes = float_of_int wins; trials })
    ~finalize:(fun ~trials wins -> float_of_int wins /. float_of_int trials)
    ()

let submit_cleaning_game ctx spec ~accesses ~samples =
  value (submit_cleaning ctx spec ~accesses ~samples)

let submit_cleaning_game_adaptive ctx spec ~accesses ~target =
  submit_cleaning ~target ctx spec ~accesses
    ~samples:target.Sequential.max_trials
