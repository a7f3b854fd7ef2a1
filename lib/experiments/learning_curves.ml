open Cachesec_cache
open Cachesec_attacks
open Cachesec_analysis
open Cachesec_report
open Cachesec_runtime
open Cachesec_telemetry

type curve = {
  arch : string;
  pas_type4 : float;
  points : (int * float) list;
}

let default_grid = [ 50; 100; 200; 400; 800; 1600; 3200 ]

(* The (trials x seed-instance) cross product is a flat bag of
   independent campaigns, so the whole curve fans out over the
   scheduler. Each instance keeps the legacy [seed + 1000 i] derivation,
   which makes the curve identical to the old serial loop for any
   [jobs]. *)
let curve ?(seeds = 8) ?(grid = default_grid) (ctx : Run.ctx) spec =
  if seeds <= 0 then
    invalid_arg "Learning_curves.curve: seeds must be positive";
  Telemetry.with_span ctx.Run.telemetry ~parent:ctx.Run.parent
    ("learning-curve:" ^ Spec.name spec)
  @@ fun sp ->
  let seed = ctx.Run.seed in
  let work =
    Array.of_list
      (List.concat_map
         (fun trials -> List.init seeds (fun i -> (trials, i)))
         grid)
  in
  let campaign (trials, i) =
    let s = Setup.make ~seed:(seed + (1000 * i)) spec in
    let r =
      Flush_reload.run ~victim:s.Setup.victim
        ~attacker_pid:s.Setup.attacker_pid ~rng:s.Setup.rng
        { Flush_reload.trials; target_byte = 0; victim_prefetch = false }
    in
    if r.Flush_reload.nibble_recovered then 1 else 0
  in
  let wins =
    Scheduler.map_array ?jobs:ctx.Run.jobs ~tm:ctx.Run.telemetry ~span:sp
      campaign work
  in
  let points =
    List.mapi
      (fun gi trials ->
        let total = ref 0 in
        for i = 0 to seeds - 1 do
          total := !total + wins.((gi * seeds) + i)
        done;
        (trials, float_of_int !total /. float_of_int seeds))
      grid
  in
  {
    arch = Spec.display_name spec;
    pas_type4 = Attack_models.pas Attack_type.Flush_and_reload spec ();
    points;
  }

let standard_specs =
  [ Spec.paper_sa; Spec.paper_re; Spec.paper_noisy; Spec.paper_rf;
    Spec.paper_newcache ]

let curves ?seeds (ctx : Run.ctx) =
  Telemetry.with_span ctx.Run.telemetry ~parent:ctx.Run.parent
    "learning-curves"
  @@ fun sp ->
  let ctx = Run.with_parent sp ctx in
  List.map (fun spec -> curve ?seeds ctx spec) standard_specs

let render curves =
  let grid =
    match curves with [] -> [] | c :: _ -> List.map fst c.points
  in
  let headers =
    "Cache" :: "PAS T4"
    :: List.map (fun t -> Printf.sprintf "n=%d" t) grid
  in
  let rows =
    List.map
      (fun c ->
        c.arch :: Table.fmt_prob c.pas_type4
        :: List.map (fun (_, f) -> Printf.sprintf "%.2f" f) c.points)
      curves
  in
  "Sample complexity of flush-and-reload (nibble-recovery frequency over\n\
   seeds vs trial count): higher PAS means fewer trials; PAS ~ 0 never\n\
   converges - the operational reading of the metric.\n"
  ^ Table.render ~headers ~rows ()

let csv_rows curves =
  List.concat_map
    (fun c ->
      List.map
        (fun (t, f) ->
          [
            c.arch;
            Printf.sprintf "%.6g" c.pas_type4;
            string_of_int t;
            Printf.sprintf "%.4f" f;
          ])
        c.points)
    curves
