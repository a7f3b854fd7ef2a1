open Cachesec_cache
open Cachesec_attacks
open Cachesec_analysis
open Cachesec_report
open Cachesec_runtime
open Cachesec_telemetry

(* Both helpers fan their trials out over the trial runtime; ablation
   outcomes are independent of [ctx.jobs]. The submit forms dispatch the
   campaign's shards onto the pool without blocking, so a sweep can
   launch every row's campaign before awaiting the first — rows are
   awaited (and tables built) in row order, keeping the rendered output
   bit-identical to the sequential formulation. *)
let submit_collision (ctx : Run.ctx) spec trials =
  Driver.submit_collision ctx spec
    {
      Collision.default_config with
      Collision.trials = Figures.trials_for ctx trials;
    }

let submit_evict_time (ctx : Run.ctx) spec trials =
  Driver.submit_evict_time ctx spec
    {
      Evict_time.default_config with
      Evict_time.trials = Figures.trials_for ctx trials;
    }

(* Every sweep is one telemetry span; the Driver campaigns for its cells
   nest under it. *)
let sweep (ctx : Run.ctx) name body =
  Telemetry.with_span ctx.Run.telemetry ~parent:ctx.Run.parent name
  @@ fun sp -> body (Run.with_parent sp ctx)

let render_rf_window (ctx : Run.ctx) =
  sweep ctx "ablation:rf-window" @@ fun ctx ->
  let windows = [ 0; 4; 16; 64; 128 ] in
  let rows =
    Driver.await_all
      (List.map
         (fun w ->
           let spec = Spec.Rf { ways = 8; policy = Policy.Random; back = w; fwd = w } in
           let pas = Attack_models.pas Attack_type.Cache_collision spec () in
           Driver.map_pending
             (fun (r : Collision.result) ->
               [
                 string_of_int w;
                 Table.fmt_prob pas;
                 string_of_bool r.Collision.nibble_recovered;
                 Printf.sprintf "%.2f" r.Collision.separation;
               ])
             (submit_collision ctx spec 100000))
         windows)
  in
  "Ablation: RF window half-size vs collision-attack PAS (p0 = 1/(2w+1))\n"
  ^ Table.render
      ~headers:[ "window w"; "PAS (analytic)"; "nibble recovered"; "z" ]
      ~rows ()

let render_re_interval (ctx : Run.ctx) =
  sweep ctx "ablation:re-interval" @@ fun ctx ->
  let intervals = [ 1; 2; 5; 10; 100 ] in
  let rows =
    Driver.await_all
      (List.map
         (fun t ->
           let spec = Spec.Re { ways = 1; policy = Policy.Random; interval = t } in
           let pas = Attack_models.pas Attack_type.Cache_collision spec () in
           Driver.map_pending
             (fun (r : Collision.result) ->
               [
                 string_of_int t;
                 Table.fmt_prob pas;
                 string_of_bool r.Collision.nibble_recovered;
                 Printf.sprintf "%.2f" r.Collision.separation;
               ])
             (submit_collision ctx spec 100000))
         intervals)
  in
  "Ablation: RE eviction interval vs collision-attack PAS (p4 = 1 - 1/(N T))\n"
  ^ Table.render
      ~headers:[ "interval T"; "PAS (analytic)"; "nibble recovered"; "z" ]
      ~rows ()

let render_noise_sigma (ctx : Run.ctx) =
  sweep ctx "ablation:noise-sigma" @@ fun ctx ->
  let sigmas = [ 0.; 0.25; 0.5; 1.; 2. ] in
  let rows =
    Driver.await_all
      (List.map
         (fun sigma ->
           let spec = Spec.Noisy { ways = 8; policy = Policy.Random; sigma } in
           let pas = Attack_models.pas Attack_type.Evict_and_time spec () in
           let trials_needed =
             if sigma = 0. then 1
             else Noise.trials_to_overcome ~sigma ~confidence:0.99
           in
           Driver.map_pending
             (fun (r : Evict_time.result) ->
               [
                 Printf.sprintf "%g" sigma;
                 Table.fmt_prob (Noise.p5 ~sigma);
                 Table.fmt_prob pas;
                 string_of_int trials_needed;
                 string_of_bool r.Evict_time.nibble_recovered;
               ])
             (submit_evict_time ctx spec 50000))
         sigmas)
  in
  "Ablation: noisy-cache sigma vs Type 1 PAS; noise only slows the attacker\n"
  ^ Table.render
      ~headers:
        [ "sigma"; "p5"; "PAS (analytic)"; "avg trials to 99%"; "nibble recovered" ]
      ~rows ()

let render_nomo_reserved (ctx : Run.ctx) =
  sweep ctx "ablation:nomo-reserved" @@ fun ctx ->
  let reservations = [ 0; 1; 2; 4 ] in
  let rows =
    Driver.await_all
      (List.map
         (fun reserved ->
           let spec = Spec.Nomo { ways = 8; policy = Policy.Random; reserved } in
           let pas = Attack_models.pas Attack_type.Evict_and_time spec () in
           Driver.map_pending
             (fun (r : Evict_time.result) ->
               [
                 Printf.sprintf "%d/8" reserved;
                 Table.fmt_prob pas;
                 string_of_bool r.Evict_time.nibble_recovered;
                 Printf.sprintf "%.2f" r.Evict_time.separation;
               ])
             (submit_evict_time ctx spec 50000))
         reservations)
  in
  "Ablation: Nomo reserved ways vs Type 1 (the AES footprint is 1-2 lines/set:\n\
   protection appears once the reservation covers it)\n"
  ^ Table.render
      ~headers:[ "reserved"; "PAS (analytic)"; "nibble recovered"; "z" ]
      ~rows ()

let render_replacement_policy (ctx : Run.ctx) =
  sweep ctx "ablation:replacement-policy" @@ fun ctx ->
  let rows =
    Driver.await_all
      (List.map
         (fun policy ->
           let spec = Spec.Sa { ways = 8; policy } in
           Driver.map_pending
             (fun (r : Evict_time.result) ->
               [
                 Policy.to_string policy;
                 string_of_bool r.Evict_time.nibble_recovered;
                 Printf.sprintf "%.2f" r.Evict_time.separation;
               ])
             (submit_evict_time ctx spec 50000))
         [ Policy.Lru; Policy.Random; Policy.Fifo ])
  in
  "Ablation: replacement policy vs Type 1. With LRU (or FIFO) the\n\
   attacker's w fresh accesses evict the set deterministically, so the\n\
   attack is stronger than under random replacement - the reason the\n\
   paper evaluates all caches with the random policy ('this gives better\n\
   resilience against cache attackers', Section 3.7).\n"
  ^ Table.render
      ~headers:[ "policy"; "nibble recovered"; "z" ]
      ~rows ()

(* Each sweep runs under its own historical seed (11..15): [render]
   re-seeds the shared ctx per sweep rather than reusing [ctx.seed]. *)
let render (ctx : Run.ctx) =
  String.concat "\n"
    (List.map
       (fun (seed, sweep) -> sweep (Run.with_seed seed ctx))
       [
         (11, render_rf_window);
         (12, render_re_interval);
         (13, render_noise_sigma);
         (14, render_nomo_reserved);
         (15, render_replacement_policy);
       ])
