(** A simplified Side-channel Vulnerability Factor (Demme et al. 2012,
    the paper's reference [5]): the correlation between ground-truth
    similarity of the victim's secret-dependent accesses and similarity
    of the attacker's observations, over pairs of execution intervals.

    Protocol per interval: the attacker primes every set, the victim
    performs one secret-dependent access (a random first-round AES table
    lookup), the attacker probes and keeps the per-set miss vector.
    Oracle similarity of two intervals is 1 iff the secret lines were
    equal; observed similarity is the Pearson correlation of the two
    miss vectors. SVF is the Pearson correlation between the two
    similarity series over all interval pairs.

    SVF and PAS agree on the ranking of the nine architectures; the
    point of the comparison (as in the paper's Section 1.1 discussion)
    is that SVF needs a run per design while PAS is closed-form. *)

type row = {
  arch : string;
  svf : float;  (** in [-1, 1]; near 1 = leaky, near 0 = protected *)
  pas_type2 : float;
}

val table : ?seed:int -> ?intervals:int -> unit -> row list
(** One row per paper cache. [intervals] defaults to 80 (3160 interval
    pairs). *)

val render : row list -> string
