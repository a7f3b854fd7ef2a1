(** Whole-key recovery: run a first-round attack against each of the 16
    key bytes and aggregate. At cache-line granularity each byte yields
    its high nibble — 64 of the 128 key bits, exactly what the paper's
    attacks obtain on 64-byte-line caches (the low nibbles come from
    second-round extensions out of scope here). *)

type t = {
  per_byte_winner : int array;  (** best candidate per key byte (16) *)
  per_byte_recovered : bool array;  (** high-nibble correctness per byte *)
  nibbles_recovered : int;  (** 0..16 *)
  bits_recovered : int;  (** 4 * nibbles *)
}

val flush_reload :
  victim:Victim.t ->
  attacker_pid:int ->
  rng:Cachesec_stats.Rng.t ->
  trials_per_byte:int ->
  t
(** One flush-and-reload campaign per key byte. *)

val render : t -> string
(** A 16-cell summary line, e.g. "2b.. 7e.. ... 12/16 nibbles (48 bits)". *)
