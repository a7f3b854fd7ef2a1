open Cachesec_stats
open Cachesec_cache
open Cachesec_attacks
open Cachesec_analysis
open Cachesec_report
open Cachesec_runtime
open Cachesec_telemetry

type cell = {
  arch : string;
  attack : Attack_type.t;
  pas : float;
  predicted_leak : bool;
  recovered : bool;
  separation : float;
  agrees : bool;
  note : string;
  trials : int;
  max_trials : int;
  ci_half_width : float;
}

type adaptive = { confidence : float; ci_width : float }

(* Explanations for the documented analytical-vs-simulated gaps. *)
let known_note spec attack =
  match (spec, attack) with
  | Spec.Nomo _, Attack_type.Evict_and_time ->
    "paper's Nomo PAS assumes the victim exceeds its reserved ways; the \
     5KB AES footprint fits in 2 ways/set, so the simulated Nomo protects"
  | Spec.Rf _, Attack_type.Evict_and_time ->
    "random fill keeps the tables un-warm, attenuating the timing \
     contrast that the PIFG counts from eviction success alone"
  | Spec.Rf _, Attack_type.Prime_and_probe ->
    "the RF window fill is mildly set-biased (3/129 vs 2/129 toward the \
     accessed line's set), so a many-trial prime-and-probe still recovers \
     the nibble; the paper's RF Type 2 PAS is likewise non-zero"
  | Spec.Noisy _, Attack_type.Cache_collision ->
    "whole-block dilution leaves a ~0.1-miss contrast; sigma=1 noise \
     pushes detection beyond this trial budget (more trials recover it)"
  | Spec.Noisy _, _ ->
    "sigma=1 noise lowers the per-trial signal; detection is borderline \
     at this trial budget"
  | _ -> ""

let lock_for spec =
  match spec with Spec.Pl _ -> true | _ -> false

(* Each cell fans its trials out over the trial runtime (Driver): the
   batch plan and per-batch seeds depend only on [(ctx.seed, ctx.quick)],
   so any [jobs] value yields the same cell — enforced by test_runtime.
   With an active telemetry context the cell is a span
   [validation:<arch>:<attack>] and the Driver campaigns nest under it.

   [submit_cell] is the non-blocking form: the cell span is opened and
   the attack campaign's shards dispatched onto the pool now; building
   the cell record (and closing its span) happens at [Driver.await].

   With [?adaptive] the cell's campaign gets a stopping target: same
   per-cell trial budget, but as the cap of a sequential-stopping
   target. [ci_width = 0.] never stops early — the campaign runs to cap
   on the adaptive batch plan, which is how the bench's fixed arm
   measures achieved widths on a plan identical to the adaptive arm's. *)
let target_for adaptive cap =
  match adaptive with
  | None -> None
  | Some { confidence; ci_width } ->
    Some
      (Sequential.target ~confidence
         ~min_trials:(Stdlib.max 1 (Stdlib.min 100 cap))
         ~half_width:ci_width ~max_trials:cap ())

let submit_cell ?adaptive (ctx : Run.ctx) spec attack =
  let tm = ctx.Run.telemetry in
  let sp =
    Telemetry.span tm ~parent:ctx.Run.parent
      (Printf.sprintf "validation:%s:%s" (Spec.name spec)
         (Attack_type.short attack))
  in
  let ctx = Run.with_parent sp ctx in
  let t n = Figures.trials_for ctx n in
  (* Every attack reduces its campaign to the same tuple: (recovered,
     separation, trials executed, cap, achieved half-width). Without a
     target the campaign runs its whole plan, so trials = cap and the
     width is [nan]. *)
  let run attack cap c extract =
    Driver.map_pending
      (fun (a : _ Driver.campaign) ->
        let recovered, separation = extract a.Driver.value in
        (recovered, separation, a.Driver.trials, a.Driver.cap, a.Driver.achieved))
      (Driver.submit_attack ?target:(target_for adaptive cap) attack ctx spec c)
  in
  match
    match attack with
    | Attack_type.Evict_and_time ->
      let cap = t 50000 in
      run Driver.evict_time cap
        {
          Evict_time.default_config with
          Evict_time.trials = cap;
          lock_victim_tables = lock_for spec;
        }
        (fun r -> (r.Evict_time.nibble_recovered, r.Evict_time.separation))
    | Attack_type.Prime_and_probe ->
      let cap = t 3000 in
      run Driver.prime_probe cap
        {
          Prime_probe.default_config with
          Prime_probe.trials = cap;
          lock_victim_tables = lock_for spec;
        }
        (fun r -> (r.Prime_probe.nibble_recovered, r.Prime_probe.separation))
    | Attack_type.Cache_collision ->
      let cap = t 250000 in
      run Driver.collision cap
        { Collision.default_config with Collision.trials = cap }
        (fun r -> (r.Collision.nibble_recovered, r.Collision.separation))
    | Attack_type.Flush_and_reload ->
      let cap = t 3000 in
      run Driver.flush_reload cap
        { Flush_reload.default_config with Flush_reload.trials = cap }
        (fun r -> (r.Flush_reload.nibble_recovered, r.Flush_reload.separation))
  with
  | exception e ->
    Telemetry.close_span tm sp;
    raise e
  | sub ->
    Driver.pending_of_thunk (fun () ->
        match Driver.await sub with
        | exception e ->
          Telemetry.close_span tm sp;
          raise e
        | recovered, separation, trials, max_trials, ci_half_width ->
          let pas = Attack_models.pas attack spec () in
          (* The paper's own Table 7 judgment: noise-based PAS reduction
             does not count as resilience (repetition defeats it). *)
          let predicted_leak =
            Resilience.classify spec attack = Resilience.Low
          in
          let agrees = predicted_leak = recovered in
          let c =
            {
              arch = Spec.display_name spec;
              attack;
              pas;
              predicted_leak;
              recovered;
              separation;
              agrees;
              note = (if agrees then "" else known_note spec attack);
              trials;
              max_trials;
              ci_half_width;
            }
          in
          Telemetry.close_span tm sp;
          c)

let cell ?adaptive ctx spec attack =
  Driver.await (submit_cell ?adaptive ctx spec attack)

(* The full 9x4 matrix. [pipeline:true] (the default) submits every
   cell's campaign before the first await, so shards from all 36 cells
   share the pool queue and workers never idle at one cell's join
   barrier; [pipeline:false] runs the cells strictly one after another
   (the pre-pool behaviour — and the sequential arm of the e2e bench).
   Both orders await/merge cell-by-cell in the same list order, so the
   result is bit-identical (enforced by test_runtime). *)
let cells ?(pipeline = true) ?policy ?adaptive (ctx : Run.ctx) =
  Telemetry.with_span ctx.Run.telemetry ~parent:ctx.Run.parent
    "validation-matrix"
  @@ fun sp ->
  let ctx = Run.with_parent sp ctx in
  let specs =
    match policy with
    | None -> Spec.all_paper
    | Some p -> List.map (fun spec -> Spec.with_policy spec p) Spec.all_paper
  in
  let combos =
    List.concat_map
      (fun spec -> List.map (fun attack -> (spec, attack)) Attack_type.all)
      specs
  in
  if pipeline then
    Driver.await_all
      (List.map
         (fun (spec, attack) -> submit_cell ?adaptive ctx spec attack)
         combos)
  else List.map (fun (spec, attack) -> cell ?adaptive ctx spec attack) combos

let total_trials cells =
  List.fold_left (fun acc c -> acc + c.trials) 0 cells

let total_caps cells =
  List.fold_left (fun acc c -> acc + c.max_trials) 0 cells

(* Non-finite widths are skipped, not just nan: a cell whose relative
   width is [infinity] (zero mean with spread) can never stop early and
   runs to cap in both bench arms, so it must not poison the
   matched-width target. *)
let worst_half_width cells =
  List.fold_left
    (fun acc c ->
      if Float.is_finite c.ci_half_width then Float.max acc c.ci_half_width
      else acc)
    0. cells

let agreement_rate cells =
  if cells = [] then nan
  else begin
    let ok = List.length (List.filter (fun c -> c.agrees) cells) in
    float_of_int ok /. float_of_int (List.length cells)
  end

let render cells =
  (* Adaptive columns appear only when at least one cell actually
     measured an interval, so fixed-matrix output is byte-identical to
     what it was before the adaptive runtime existed. *)
  let adaptive_run =
    List.exists (fun c -> not (Float.is_nan c.ci_half_width)) cells
  in
  let headers =
    [ "Cache"; "Attack"; "PAS"; "predicted"; "simulated"; "agree" ]
    @ (if adaptive_run then [ "trials"; "ci" ] else [])
    @ [ "note" ]
  in
  let rows =
    List.map
      (fun c ->
        [
          c.arch;
          Attack_type.short c.attack;
          Table.fmt_prob c.pas;
          (if c.predicted_leak then "leak" else "safe");
          (if c.recovered then "leak" else "safe");
          (if c.agrees then "yes" else "NO");
        ]
        @ (if adaptive_run then
             [
               Printf.sprintf "%d/%d" c.trials c.max_trials;
               (if Float.is_nan c.ci_half_width then "-"
                else Printf.sprintf "%.4f" c.ci_half_width);
             ]
           else [])
        @ [ c.note ])
      cells
  in
  let aligns =
    [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
      Table.Right ]
    @ (if adaptive_run then [ Table.Right; Table.Right ] else [])
    @ [ Table.Left ]
  in
  "Validation matrix: PIFG prediction vs simulated attack outcome\n"
  ^ Table.render ~aligns ~headers ~rows ()
  ^ Printf.sprintf "agreement: %.0f%%\n" (100. *. agreement_rate cells)
  ^
  if adaptive_run then
    Printf.sprintf "adaptive: %d of %d trials (%.1fx saved), worst ci %.4f\n"
      (total_trials cells) (total_caps cells)
      (float_of_int (total_caps cells)
      /. Float.max 1. (float_of_int (total_trials cells)))
      (worst_half_width cells)
  else ""
