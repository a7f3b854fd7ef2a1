(** The last-round flush-and-reload attack: full 128-bit key recovery.

    Every final-round lookup satisfies
    [ciphertext_byte = SBox(index) XOR k10_byte], and the attacker sees
    the ciphertext. For a candidate last-round key byte the predicted
    te4 line is [InvSBox(c XOR k) / 16]; for the true candidate that
    line was touched on {e every} encryption, while wrong candidates
    point at lines that were only incidentally covered (~64% of the
    time). Because the ciphertext varies across trials, this
    disambiguates {e full bytes}, not just line nibbles — and the AES-128
    key schedule inverts, so the recovered round-10 key yields the
    complete master key. *)

type config = { trials : int }

type result = {
  round10_guess : int array;  (** best candidate per round-10 key byte *)
  bytes_correct : int;  (** against the victim's true round-10 key *)
  master_key_guess : string;  (** hex of the inverted schedule's key *)
  key_recovered : bool;  (** the guess equals the victim's master key *)
}

val run :
  victim:Victim.t -> attacker_pid:int -> rng:Cachesec_stats.Rng.t -> config -> result
