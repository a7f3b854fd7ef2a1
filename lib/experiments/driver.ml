open Cachesec_stats
open Cachesec_cache
open Cachesec_attacks
open Cachesec_runtime
open Cachesec_telemetry

let setup_for ~(ctx : Run.ctx) spec (b : Scheduler.batch) =
  Setup.make ~seed:(Run.batch_seed ctx b.Scheduler.index) spec

(* Partial-merge is the scheduler's index-order fold, so "merge in
   batch order" has a single definition in the codebase. [what] names the campaign so an
   empty-plan failure is attributed to its experiment. *)
let fold_partials ~what merge parts =
  Scheduler.fold_results ~what:(what ^ " partials") ~merge parts

(* Adapt an in-place [merge_into] to the scheduler's pure-merge shape:
   both the index-order fold above and [Adaptive]'s round continuation
   consume each batch partial exactly once into a running left
   accumulator, so folding the right side into the left and returning it
   is equivalent to the pure merge — without allocating a fresh
   accumulator (3 arrays + a summary per step) per batch. *)
let in_place merge_into a b =
  merge_into a b;
  a

(* --- pending campaigns ------------------------------------------------ *)

(* A campaign whose shards have been dispatched onto the pool but whose
   merge has not happened yet. [await] is memoizing (value or failure),
   so a pending can be passed around and joined from exactly one place
   without double-folding or double-closing its span. *)
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

let pending_value v = { state = Value v }
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

(* Per-attack shard sizes. They are properties of the *experiment
   definition*, never of the worker count: changing [jobs] must not
   change the batch plan, or determinism across job counts is lost.
   Sizes are chosen so a typical full-scale run yields enough batches to
   keep every core busy while a quick-scale run stays in one batch — one
   pool task at [jobs > 1], never run on the submitting domain. *)
let evict_time_batch = 4096 (* also the attacker's base-rotation period *)
let prime_probe_batch = 256
let collision_batch = 8192
let flush_reload_batch = 256
let cleaning_batch = 250

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

(* Attack-trial counters, sampled once per finished batch like the
   engine counters above: a global [attacks.trials] plus a per-class
   [attacks.<class>.trials], so a TELEMETRY_*.json records how much
   attack work each campaign actually executed (and the attack-
   throughput bench's counters line up with its gauges). The counter
   bump sits outside the trial loop — the zero-allocation fast path is
   never instrumented. *)
let sample_attack_counters tm ~attack trials =
  if not (Telemetry.is_null tm) then begin
    Telemetry.count tm "attacks.trials" trials;
    Telemetry.count tm ("attacks." ^ attack ^ ".trials") trials
  end

(* Common campaign shape, split at the submit/await seam: [submit_campaign]
   opens the experiment span, plans the batches and dispatches the shard
   tasks onto the pool (tagged with the span so batch events nest under
   it) — returning without blocking. The returned pending's join folds
   the partials in batch order, bumps the driver counters and finalizes.
   Pipelining across campaigns is calling several [submit_campaign]s
   before the first [await]; the blocking [run_*] forms are
   submit-then-await and semantically identical to the pre-pool code. *)
let submit_campaign ~(ctx : Run.ctx) ~name ~default_batch ~total ~shard ~merge
    ~finalize =
  let tm = ctx.Run.telemetry in
  let sp = Telemetry.span tm ~parent:ctx.Run.parent name in
  Telemetry.gauge tm ~span:sp "trials" (float_of_int total);
  match
    let batch_size = Option.value ctx.Run.batch ~default:default_batch in
    let plan = Scheduler.plan ~total ~batch_size in
    (plan, Scheduler.submit_map ?jobs:ctx.Run.jobs ~tm ~span:sp shard plan)
  with
  | exception e ->
    (* A bad plan or [jobs] raises here (a shard failure waits for
       [await]): close the span on the way out. *)
    Telemetry.close_span tm sp;
    raise e
  | plan, shards ->
    {
      state =
        Thunk
          (fun () ->
            match Scheduler.await shards with
            | exception e ->
              Telemetry.close_span tm sp;
              raise e
            | parts ->
              if not (Telemetry.is_null tm) then begin
                Telemetry.count tm "driver.batches" (Array.length plan);
                Telemetry.count tm "driver.trials" total
              end;
              let v = finalize (fold_partials ~what:name merge parts) in
              Telemetry.close_span tm sp;
              v);
    }

(* Shard closures are shared between the fixed-count and adaptive
   submits below: a batch computes the same partial either way — only
   how many batches run differs. *)
let evict_time_shard (ctx : Run.ctx) spec (c : Evict_time.config)
    (b : Scheduler.batch) =
  let tm = ctx.Run.telemetry in
  let s = setup_for ~ctx spec b in
  let p =
    Evict_time.run_span ~victim:s.Setup.victim
      ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
      ~first:b.Scheduler.first ~count:b.Scheduler.count c
  in
  sample_engine_counters tm s;
  sample_attack_counters tm ~attack:"evict_time" b.Scheduler.count;
  p

(* The reference victim (keys, table layout) is a function of the run
   seed only, identical across batches — see Setup.make. *)
let victim_of (ctx : Run.ctx) spec =
  (Setup.make ~seed:ctx.Run.seed spec).Setup.victim

let submit_evict_time (ctx : Run.ctx) spec (c : Evict_time.config) =
  submit_campaign ~ctx
    ~name:("evict-time:" ^ Spec.name spec)
    ~default_batch:evict_time_batch ~total:c.Evict_time.trials
    ~shard:(evict_time_shard ctx spec c) ~merge:(in_place Evict_time.merge_into)
    ~finalize:(fun merged ->
      Evict_time.finalize ~victim:(victim_of ctx spec) c merged)

let run_evict_time ctx spec c = await (submit_evict_time ctx spec c)

let prime_probe_shard (ctx : Run.ctx) spec (c : Prime_probe.config)
    (b : Scheduler.batch) =
  let tm = ctx.Run.telemetry in
  let s = setup_for ~ctx spec b in
  let p =
    Prime_probe.run_span ~victim:s.Setup.victim
      ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
      ~count:b.Scheduler.count c
  in
  sample_engine_counters tm s;
  sample_attack_counters tm ~attack:"prime_probe" b.Scheduler.count;
  p

let submit_prime_probe (ctx : Run.ctx) spec (c : Prime_probe.config) =
  submit_campaign ~ctx
    ~name:("prime-probe:" ^ Spec.name spec)
    ~default_batch:prime_probe_batch ~total:c.Prime_probe.trials
    ~shard:(prime_probe_shard ctx spec c) ~merge:(in_place Prime_probe.merge_into)
    ~finalize:(fun merged ->
      Prime_probe.finalize ~victim:(victim_of ctx spec) c merged)

let run_prime_probe ctx spec c = await (submit_prime_probe ctx spec c)

let collision_shard (ctx : Run.ctx) spec (c : Collision.config)
    (b : Scheduler.batch) =
  let tm = ctx.Run.telemetry in
  let s = setup_for ~ctx spec b in
  let p =
    Collision.run_span ~victim:s.Setup.victim ~rng:s.Setup.rng
      ~count:b.Scheduler.count c
  in
  sample_engine_counters tm s;
  sample_attack_counters tm ~attack:"collision" b.Scheduler.count;
  p

let submit_collision (ctx : Run.ctx) spec (c : Collision.config) =
  submit_campaign ~ctx
    ~name:("collision:" ^ Spec.name spec)
    ~default_batch:collision_batch ~total:c.Collision.trials
    ~shard:(collision_shard ctx spec c) ~merge:(in_place Collision.merge_into)
    ~finalize:(fun merged ->
      Collision.finalize ~victim:(victim_of ctx spec) c merged)

let run_collision ctx spec c = await (submit_collision ctx spec c)

let flush_reload_shard (ctx : Run.ctx) spec (c : Flush_reload.config)
    (b : Scheduler.batch) =
  let tm = ctx.Run.telemetry in
  let s = setup_for ~ctx spec b in
  let p =
    Flush_reload.run_span ~victim:s.Setup.victim
      ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
      ~count:b.Scheduler.count c
  in
  sample_engine_counters tm s;
  sample_attack_counters tm ~attack:"flush_reload" b.Scheduler.count;
  p

let submit_flush_reload (ctx : Run.ctx) spec (c : Flush_reload.config) =
  submit_campaign ~ctx
    ~name:("flush-reload:" ^ Spec.name spec)
    ~default_batch:flush_reload_batch ~total:c.Flush_reload.trials
    ~shard:(flush_reload_shard ctx spec c) ~merge:(in_place Flush_reload.merge_into)
    ~finalize:(fun merged ->
      Flush_reload.finalize ~victim:(victim_of ctx spec) c merged)

let run_flush_reload ctx spec c = await (submit_flush_reload ctx spec c)

(* --- pre-PAS cleaning game ------------------------------------------- *)

(* One engine per batch: [Cleaner.count_wins] builds it for the batch's
   first game and resets it before each later one, so a batch of
   [cleaning_batch] games pays for one construction. *)
let cleaning_shard (ctx : Run.ctx) spec ~accesses (b : Scheduler.batch) =
  let rng = Rng.create ~seed:(Run.batch_seed ctx b.Scheduler.index) in
  Cleaner.count_wins spec ~accesses ~samples:b.Scheduler.count ~rng

let submit_cleaning_game (ctx : Run.ctx) spec ~accesses ~samples =
  if samples <= 0 then
    invalid_arg "Driver.cleaning_game: samples must be positive";
  submit_campaign ~ctx
    ~name:("cleaning-game:" ^ Spec.name spec)
    ~default_batch:cleaning_batch ~total:samples
    ~shard:(cleaning_shard ctx spec ~accesses) ~merge:( + )
    ~finalize:(fun wins -> float_of_int wins /. float_of_int samples)

let run_cleaning_game ctx spec ~accesses ~samples =
  await (submit_cleaning_game ctx spec ~accesses ~samples)

(* --- merged timing statistics ---------------------------------------- *)

let timing_batch = 512

let timing_shard ~lo ~hi ~bins (ctx : Run.ctx) spec (b : Scheduler.batch) =
  let tm = ctx.Run.telemetry in
  let s = setup_for ~ctx spec b in
  let h = Histogram.create ~lo ~hi ~bins in
  let sum = Summary.create () in
  for _ = 1 to b.Scheduler.count do
    let p = Victim.random_plaintext s.Setup.rng in
    let _, time = Victim.encrypt_timed s.Setup.victim p in
    let sigma = s.Setup.engine.Engine.sigma in
    let observed =
      if sigma = 0. then time
      else time +. Rng.gaussian s.Setup.rng ~mu:0. ~sigma
    in
    Histogram.add h observed;
    Summary.add sum observed
  done;
  sample_engine_counters tm s;
  (h, sum)

let timing_merge (ha, sa) (hb, sb) =
  (Histogram.merge ha hb, Summary.merge sa sb)

let submit_timing_stats ?(lo = 0.) ?(hi = 40.) ?(bins = 80) (ctx : Run.ctx)
    spec ~trials () =
  if trials <= 0 then invalid_arg "Driver.timing_stats: trials must be positive";
  submit_campaign ~ctx
    ~name:("timing-stats:" ^ Spec.name spec)
    ~default_batch:timing_batch ~total:trials
    ~shard:(timing_shard ~lo ~hi ~bins ctx spec) ~merge:timing_merge
    ~finalize:Fun.id

let run_timing_stats ?lo ?hi ?bins ctx spec ~trials () =
  await (submit_timing_stats ?lo ?hi ?bins ctx spec ~trials ())

(* --- adaptive (run-to-confidence) campaigns --------------------------- *)

type 'a adaptive = {
  value : 'a;
  trials : int;
  cap : int;
  rounds : int;
  stopped_early : bool;
  achieved : float;
}

(* Adaptive campaigns shard finer than fixed ones: the geometric rounds
   need several batch boundaries inside the cap to have anywhere to
   stop. Still a pure function of the experiment definition (cap and
   the attack's default size), never of [jobs] — so adaptive runs stay
   bit-identical across job counts. Fixed campaigns keep their exact
   PR-8 plans; only the adaptive variants use the finer grain. *)
let adaptive_batch ~default_batch ~cap =
  Stdlib.max 1 (Stdlib.min default_batch ((cap + 7) / 8))

(* The adaptive analogue of [submit_campaign]: same span/telemetry
   shape, but the batch plan is partitioned into geometric rounds and
   the pending's join awaits [Adaptive]'s future, recording how many
   trials actually ran. [observe] maps cumulative merged partials to
   the estimator the stopping rule tests; it sees the cumulative trial
   count because some partials (cleaning-game win counts) do not carry
   their own denominator. *)
let submit_adaptive_campaign ~(ctx : Run.ctx) ~name ~default_batch
    ~(target : Sequential.target) ~shard ~merge ~observe ~finalize =
  let cap = target.Sequential.max_trials in
  let tm = ctx.Run.telemetry in
  let sp = Telemetry.span tm ~parent:ctx.Run.parent name in
  Telemetry.gauge tm ~span:sp "trials_cap" (float_of_int cap);
  match
    let batch_size =
      Option.value ctx.Run.batch ~default:(adaptive_batch ~default_batch ~cap)
    in
    let plan =
      Adaptive.plan
        ~start:(Stdlib.max batch_size target.Sequential.min_trials)
        ~total:cap ~batch_size ()
    in
    let keep_going ~trials merged =
      Sequential.decide target ~trials (observe ~trials merged)
      = Sequential.Continue
    in
    Adaptive.submit ?jobs:ctx.Run.jobs ~tm ~span:sp ~what:name ~shard ~merge
      ~keep_going plan
  with
  | exception e ->
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
            (* Actual trials executed, post-early-stop — NOT the cap
               (which the "trials_cap" gauge above records). *)
            Telemetry.count tm "driver.trials" trials;
            Telemetry.count tm "driver.trials_saved" (cap - trials);
            Telemetry.gauge tm ~span:sp "trials" (float_of_int trials)
          end;
          let achieved =
            Sequential.achieved
              (observe ~trials prog.Adaptive.merged)
              ~confidence:target.Sequential.confidence
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

let submit_evict_time_adaptive (ctx : Run.ctx) spec ~target
    (c : Evict_time.config) =
  submit_adaptive_campaign ~ctx
    ~name:("evict-time:" ^ Spec.name spec ^ ":adaptive")
    ~default_batch:evict_time_batch ~target
    ~shard:(evict_time_shard ctx spec c) ~merge:(in_place Evict_time.merge_into)
    ~observe:(fun ~trials:_ p -> Evict_time.observe p)
    ~finalize:(fun ~trials:_ merged ->
      Evict_time.finalize ~victim:(victim_of ctx spec) c merged)

let submit_prime_probe_adaptive (ctx : Run.ctx) spec ~target
    (c : Prime_probe.config) =
  submit_adaptive_campaign ~ctx
    ~name:("prime-probe:" ^ Spec.name spec ^ ":adaptive")
    ~default_batch:prime_probe_batch ~target
    ~shard:(prime_probe_shard ctx spec c) ~merge:(in_place Prime_probe.merge_into)
    ~observe:(fun ~trials:_ p -> Prime_probe.observe p)
    ~finalize:(fun ~trials:_ merged ->
      Prime_probe.finalize ~victim:(victim_of ctx spec) c merged)

let submit_collision_adaptive (ctx : Run.ctx) spec ~target
    (c : Collision.config) =
  submit_adaptive_campaign ~ctx
    ~name:("collision:" ^ Spec.name spec ^ ":adaptive")
    ~default_batch:collision_batch ~target
    ~shard:(collision_shard ctx spec c) ~merge:(in_place Collision.merge_into)
    ~observe:(fun ~trials:_ p -> Collision.observe p)
    ~finalize:(fun ~trials:_ merged ->
      Collision.finalize ~victim:(victim_of ctx spec) c merged)

let submit_flush_reload_adaptive (ctx : Run.ctx) spec ~target
    (c : Flush_reload.config) =
  submit_adaptive_campaign ~ctx
    ~name:("flush-reload:" ^ Spec.name spec ^ ":adaptive")
    ~default_batch:flush_reload_batch ~target
    ~shard:(flush_reload_shard ctx spec c) ~merge:(in_place Flush_reload.merge_into)
    ~observe:(fun ~trials:_ p -> Flush_reload.observe p)
    ~finalize:(fun ~trials:_ merged ->
      Flush_reload.finalize ~victim:(victim_of ctx spec) c merged)

let submit_cleaning_game_adaptive (ctx : Run.ctx) spec ~accesses ~target =
  submit_adaptive_campaign ~ctx
    ~name:("cleaning-game:" ^ Spec.name spec ^ ":adaptive")
    ~default_batch:cleaning_batch ~target
    ~shard:(cleaning_shard ctx spec ~accesses) ~merge:( + )
    ~observe:(fun ~trials wins ->
      Sequential.Proportion { successes = float_of_int wins; trials })
    ~finalize:(fun ~trials wins -> float_of_int wins /. float_of_int trials)

let run_cleaning_game_adaptive ctx spec ~accesses ~target =
  await (submit_cleaning_game_adaptive ctx spec ~accesses ~target)
