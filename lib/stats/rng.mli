(** Deterministic pseudo-random number generation.

    All randomized components of the library (cache replacement, random fill
    windows, attack plaintext generation, Monte-Carlo cross-checks) draw from
    a value of type {!t} so that every experiment is reproducible from a
    single integer seed. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Useful to give each subsystem (cache, victim, attacker) its own stream so
    that adding draws in one does not perturb the others. *)

val derive_seed : int -> int -> int
(** [derive_seed base i] is a pure SplitMix64-style hash of the pair
    [(base, i)]: a well-separated child seed for the [i]-th member of a
    trial family rooted at [base]. Unlike {!split} it involves no generator
    state, so trial [i]'s stream is a function of [(base, i)] alone —
    the property the Domain-parallel scheduler relies on for bit-identical
    serial/parallel runs. *)

val int : t -> int -> int
(** [int t bound] is uniform over [0, bound-1]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform over [0, bound). *)

val bool : t -> bool
(** A fair coin flip. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly chosen element of the non-empty array [a]. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** A draw from N(mu, sigma^2) via the Box-Muller transform.
    [sigma] must be non-negative; [sigma = 0.] returns [mu] exactly. *)
