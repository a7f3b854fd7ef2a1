(** Discrete mutual information, in bits.

    Several prior metrics cited by the paper ([27], [15], [14], [35])
    quantify cache leakage as the mutual information between the secret and
    the attacker's observation. We provide a plug-in estimator over joint
    counts so the examples can contrast MI-based scoring with PAS. *)

type joint
(** A mutable contingency table over [x_card] x [y_card] outcomes. *)

val create : x_card:int -> y_card:int -> joint
val observe : joint -> x:int -> y:int -> unit
(** Record one co-occurrence. Raises [Invalid_argument] out of range. *)

val mi : joint -> float
(** Plug-in estimate of I(X;Y) in bits; 0. when the table is empty. *)

val normalized_mi : joint -> float
(** I(X;Y) / H(X): the fraction of the secret's entropy leaked; 0. when
    H(X) = 0. *)

val of_samples : x_card:int -> y_card:int -> (int * int) array -> joint
