(** Scenario wiring shared by the simulation experiments: one victim
    (pid 0) running AES with its five tables at line 0, one attacker
    (pid 1) whose own memory lives at {!Cachesec_attacks.Attacker.default_base}. *)

open Cachesec_cache
open Cachesec_attacks

type t = {
  spec : Spec.t;
  engine : Engine.t;
  victim : Victim.t;
  attacker_pid : int;
  rng : Cachesec_stats.Rng.t;  (** the attacker/experiment stream *)
}

val default_key_hex : string
(** The FIPS-197 Appendix B key, 2b7e1516...: a fixed, documented secret
    for reproducible runs. *)

val make : ?seed:int -> ?key_hex:string -> Spec.t -> t
(** Fresh engine + victim + RNG for one experiment run. *)
