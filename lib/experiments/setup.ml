open Cachesec_stats
open Cachesec_cache
open Cachesec_crypto
open Cachesec_attacks

type t = {
  spec : Spec.t;
  engine : Engine.t;
  victim : Victim.t;
  attacker_pid : int;
  rng : Rng.t;
}

let default_key_hex = "2b7e151628aed2a6abf7158809cf4f3c"

let make ?(seed = 42) ?(key_hex = default_key_hex) spec =
  let root = Rng.create ~seed in
  let cache_rng = Rng.split root in
  let experiment_rng = Rng.split root in
  (* The victim-owned line ranges depend only on the layout geometry,
     which is fixed before the engine exists. *)
  let provisional_layout = Aes_layout.create Config.standard in
  let scenario =
    {
      Factory.victim_pid = 0;
      victim_lines = Aes_layout.line_ranges provisional_layout;
    }
  in
  let engine = Factory.build spec scenario ~rng:cache_rng in
  let layout = Aes_layout.create engine.Engine.config in
  let victim =
    Victim.create ~engine ~pid:0 ~key:(Aes.key_of_hex key_hex) ~layout
  in
  { spec; engine; victim; attacker_pid = 1; rng = experiment_rng }
