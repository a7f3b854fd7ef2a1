(* What each Driver campaign computes, pinned by digest.

   Every campaign below renders its whole result (every array element,
   every float as an exact [%h] hexadecimal literal) and the text's MD5
   must equal the digest recorded before the fixed and the adaptive
   campaign paths were merged into one. Each case runs at [jobs:1] and
   [jobs:2] against the same digest, so the serial path (merges inline)
   and the pool path (merges on the worker that finished the round)
   are both pinned. A change that moves any digest changes what an
   experiment computes. *)

open Cachesec_stats
open Cachesec_cache
open Cachesec_attacks
open Cachesec_experiments
open Cachesec_runtime

let floats a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))
let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let evict_time (r : Evict_time.result) =
  Printf.sprintf "avg=[%s] counts=[%s] scores=[%s] best=%d true=%d rec=%b sep=%h"
    (floats r.Evict_time.avg_times) (ints r.Evict_time.counts)
    (floats r.Evict_time.scores) r.Evict_time.best_candidate
    r.Evict_time.true_byte r.Evict_time.nibble_recovered r.Evict_time.separation

let prime_probe (r : Prime_probe.result) =
  Printf.sprintf "miss=[%s] scores=[%s] best=%d true=%d rec=%b sep=%h"
    (floats r.Prime_probe.set_miss_rate) (floats r.Prime_probe.scores)
    r.Prime_probe.best_candidate r.Prime_probe.true_byte
    r.Prime_probe.nibble_recovered r.Prime_probe.separation

let collision (r : Collision.result) =
  Printf.sprintf "avg=[%s] counts=[%s] scores=[%s] best=%d true=%d rec=%b sep=%h"
    (floats r.Collision.avg_times) (ints r.Collision.counts)
    (floats r.Collision.scores) r.Collision.best_delta r.Collision.true_delta
    r.Collision.nibble_recovered r.Collision.separation

let flush_reload (r : Flush_reload.result) =
  Printf.sprintf "hit=[%s] scores=[%s] best=%d true=%d rec=%b sep=%h"
    (floats r.Flush_reload.line_hit_rate) (floats r.Flush_reload.scores)
    r.Flush_reload.best_candidate r.Flush_reload.true_byte
    r.Flush_reload.nibble_recovered r.Flush_reload.separation

let adaptive show (a : _ Driver.campaign) =
  Printf.sprintf "%s trials=%d cap=%d rounds=%d early=%b achieved=%h"
    (show a.Driver.value) a.Driver.trials a.Driver.cap a.Driver.rounds
    a.Driver.stopped_early a.Driver.achieved

let cells cs =
  String.concat "\n"
    (List.map
       (fun (c : Validation.cell) ->
         Printf.sprintf "%s %s pas=%h pred=%b rec=%b sep=%h agrees=%b note=%S \
                         trials=%d max=%d ci=%h"
           c.Validation.arch
           (Cachesec_analysis.Attack_type.name c.Validation.attack)
           c.Validation.pas c.Validation.predicted_leak c.Validation.recovered
           c.Validation.separation c.Validation.agrees c.Validation.note
           c.Validation.trials c.Validation.max_trials
           c.Validation.ci_half_width)
       cs)

let target ~half_width ~max_trials =
  Sequential.target ~confidence:0.95 ~min_trials:100 ~half_width ~max_trials ()

let ctx jobs = Run.make ~jobs ~seed:42 ()

(* The campaigns. Trial counts span several batches of each attack's
   default size, so the batch-order merge is exercised. *)
let cases =
  [
    ( "evict-time fixed",
      "229026762a6b3bb0f0eca992f52dea04",
      fun jobs ->
        evict_time
          (Driver.await
             (Driver.submit_evict_time (ctx jobs) Spec.paper_sa
                { Evict_time.default_config with Evict_time.trials = 9000 })) );
    ( "prime-probe fixed",
      "d3c7eabf24cd29a544e68f8ff4d95596",
      fun jobs ->
        prime_probe
          (Driver.await
             (Driver.submit_prime_probe (ctx jobs) Spec.paper_sa
                { Prime_probe.default_config with Prime_probe.trials = 600 })) );
    ( "collision fixed",
      "7b6b0e51336e09f3b2c2e9b34f8b0df6",
      fun jobs ->
        collision
          (Driver.await
             (Driver.submit_collision (ctx jobs) Spec.paper_sa
                { Collision.default_config with Collision.trials = 17000 })) );
    ( "flush-reload fixed",
      "8300e859b1045355abecb8d99b531aa0",
      fun jobs ->
        flush_reload
          (Driver.await
             (Driver.submit_flush_reload (ctx jobs) Spec.paper_sa
                { Flush_reload.default_config with Flush_reload.trials = 600 })) );
    ( "cleaning game fixed",
      "fc71ea3e1107bc521c686e6f370c3ee2",
      fun jobs ->
        Printf.sprintf "%h"
          (Driver.await
             (Driver.submit_cleaning_game (ctx jobs) Spec.paper_sa ~accesses:16
                ~samples:600)) );
    ( "cleaning game adaptive",
      "d3a107fe06d7acdaf045b0d86ffcd6b1",
      fun jobs ->
        adaptive (Printf.sprintf "%h")
          (Driver.await
             (Driver.submit_cleaning_game_adaptive (ctx jobs) Spec.paper_sa
                ~accesses:16 ~target:(target ~half_width:0.05 ~max_trials:2000))) );
    ( "prime-probe adaptive",
      "d3112e2d5c2ff72a2d63db8c55709caf",
      fun jobs ->
        adaptive prime_probe
          (Driver.await
             (Driver.submit_attack
                ~target:(target ~half_width:0.05 ~max_trials:3000)
                Driver.prime_probe (ctx jobs) Spec.paper_sa
                { Prime_probe.default_config with Prime_probe.trials = 3000 })) );
    ( "validation cells quick",
      "02023dd68359eedf95e6951d53ea744a",
      fun jobs -> cells (Validation.cells (Run.quick (ctx jobs))) );
    ( "validation cells quick adaptive",
      "2c4591186d01b5fb0947922409ad5bea",
      fun jobs ->
        cells
          (Validation.cells
             ~adaptive:{ Validation.confidence = 0.95; ci_width = 0.05 }
             (Run.quick (ctx jobs))) );
  ]

let () =
  Alcotest.run "campaign"
    [
      ( "pin",
        List.map
          (fun (name, digest, render) ->
            Alcotest.test_case name `Quick (fun () ->
                List.iter
                  (fun jobs ->
                    let got = Digest.to_hex (Digest.string (render jobs)) in
                    Printf.printf "%s jobs:%d %s\n%!" name jobs got;
                    Alcotest.(check string)
                      (Printf.sprintf "%s at jobs:%d" name jobs)
                      digest got)
                  [ 1; 2 ]))
          cases );
    ]
