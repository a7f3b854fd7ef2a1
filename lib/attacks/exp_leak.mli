(** Flush-and-reload against square-and-multiply exponentiation: the
    attacker monitors the {e code lines} of the square and multiply
    routines (a shared crypto library) and reads the secret exponent's
    bits from which routine executed in each time slot.

    Unlike the AES attacks, this channel leaks the whole secret in one
    traced execution on a leaky cache — per-line-observation probability
    is what the PIFG's Type 4 PAS scores. *)

open Cachesec_cache

type result = {
  observed_ops : Cachesec_crypto.Modexp.op option array;
      (** per time slot: what the attacker concluded (None = saw neither) *)
  slots_read : int;  (** slots correctly identified *)
  total_slots : int;
  exponent_guess : int option;
      (** reconstruction, when every slot was read *)
  exponent_recovered : bool;
}

val run :
  engine:Engine.t ->
  victim_pid:int ->
  attacker_pid:int ->
  rng:Cachesec_stats.Rng.t ->
  exponent:int ->
  ?modulus:int ->
  ?base:int ->
  unit ->
  result
(** One time-sliced execution: per operation the attacker flushes both
    routine lines, the victim executes the operation (touching its
    line), the attacker reloads both lines and classifies his latencies.
    [modulus] defaults to 2147483647 (2^31 - 1), [base] to 7. *)
