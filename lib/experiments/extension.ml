open Cachesec_stats
open Cachesec_cache
open Cachesec_crypto
open Cachesec_attacks
open Cachesec_runtime
open Cachesec_analysis
open Cachesec_report

(* PIFG for the skewed cache, built through the core library exactly as a
   user of the methodology would. The attacker cannot compute the
   victim's slot in any bank (per-domain keys), so targeting one victim
   line means landing the right slot of the right bank: 1/(banks*slots)
   = 1/lines. *)
let skewed_pas () =
  let open Cachesec_core in
  let lines = float_of_int Config.standard.Config.lines in
  let type1 =
    let b = Builder.create () in
    let a = Builder.node b ~label:"attacker address" ~role:Node.Attacker_origin in
    let v = Builder.node b ~label:"victim address" ~role:Node.Victim_origin in
    let sel = Builder.node b ~label:"bank+slot selected" ~role:Node.Internal in
    let ev = Builder.node b ~label:"victim line evicted" ~role:Node.Internal in
    let hm = Builder.node b ~label:"hit/miss" ~role:Node.Internal in
    let obs = Builder.node b ~label:"block time" ~role:Node.Observation in
    let _ = Builder.edge b ~label:"p1" ~parents:[ a ] ~child:sel 1.0 in
    let _ = Builder.edge b ~label:"p2" ~parents:[ sel ] ~child:ev (1. /. lines) in
    let _ = Builder.edge b ~label:"p4" ~parents:[ ev; v ] ~child:hm 1.0 in
    let _ = Builder.edge b ~label:"p5" ~parents:[ hm ] ~child:obs 1.0 in
    Pas.pas (Builder.finish_exn b)
  in
  (* Type 2 needs the same 1/lines twice (prime lands right, then the
     victim's fill displaces the primed line, also keyed). *)
  let type2 = type1 *. (1. /. lines) in
  (* Type 3: demand fetch, self-reuse always hits. Type 4: per-domain
     tags, cross-context hit impossible. *)
  [
    ("Type 1 evict-and-time", type1);
    ("Type 2 prime-and-probe", type2);
    ("Type 3 cache-collision", 1.0);
    ("Type 4 flush-and-reload", 0.0);
  ]

let make_skewed_victim seed =
  let rng = Rng.create ~seed in
  let engine = Skewed.engine (Skewed.create ~rng:(Rng.split rng) ()) in
  let layout = Aes_layout.create engine.Engine.config in
  let victim =
    Victim.create ~engine ~pid:0 ~key:(Aes.key_of_hex Setup.default_key_hex) ~layout
  in
  (victim, Rng.split rng)

let skewed_report (ctx : Run.ctx) =
  let seed = ctx.Run.seed in
  let t n = Figures.trials_for ctx n in
  let analytic =
    String.concat ""
      (List.map
         (fun (name, pas) ->
           Printf.sprintf "  %-26s PAS = %s\n" name (Table.fmt_prob pas))
         (skewed_pas ()))
  in
  let et =
    let victim, rng = make_skewed_victim seed in
    (Evict_time.run ~victim ~attacker_pid:1 ~rng
       { Evict_time.default_config with Evict_time.trials = t 50000 })
      .Evict_time.nibble_recovered
  in
  let pp =
    let victim, rng = make_skewed_victim (seed + 1) in
    (Prime_probe.run ~victim ~attacker_pid:1 ~rng
       { Prime_probe.default_config with Prime_probe.trials = t 2000 })
      .Prime_probe.nibble_recovered
  in
  let col =
    let victim, rng = make_skewed_victim (seed + 2) in
    (Collision.run ~victim ~rng
       { Collision.default_config with Collision.trials = t 100000 })
      .Collision.nibble_recovered
  in
  let fr =
    let victim, rng = make_skewed_victim (seed + 3) in
    (Flush_reload.run ~victim ~attacker_pid:1 ~rng
       { Flush_reload.default_config with Flush_reload.trials = t 2000 })
      .Flush_reload.nibble_recovered
  in
  Printf.sprintf
    "Extension: skewed randomized cache (per-domain keyed banks; not in the paper)\n\n\
     Analytical, via a PIFG built with the core library:\n%s\n\
     Simulated attacks against the skewed engine:\n\
    \  evict-and-time:   %s\n\
    \  prime-and-probe:  %s\n\
    \  cache-collision:  %s  (reuse-based: only RF defends this)\n\
    \  flush-and-reload: %s\n"
    analytic
    (if et then "LEAKS" else "protected")
    (if pp then "LEAKS" else "protected")
    (if col then "LEAKS" else "protected")
    (if fr then "LEAKS" else "protected")

let multi_line_report ?(lines = 4) () =
  let rows =
    List.map
      (fun (arch, single, multi) ->
        [ arch; Table.fmt_prob single; Table.fmt_prob multi ])
      (Multi.advantage_table ~lines ())
  in
  Printf.sprintf
    "Multi-line refinement (paper's Table 6 note): Type 1 PAS when the\n\
     attack needs %d distinct victim lines evicted. Deterministic caches\n\
     are unchanged; randomization compounds.\n" lines
  ^ Table.render
      ~headers:[ "Cache"; "1 line"; Printf.sprintf "%d lines" lines ]
      ~rows ()
