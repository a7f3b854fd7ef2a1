(** Fixed-width binned histograms over a closed interval.

    Used to visualise the hit/miss timing distributions (paper Figure 4) and
    the per-candidate timing bins of the attacks. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] builds an empty histogram over [lo, hi) with
    [bins] equal-width bins. Out-of-range samples are counted in underflow /
    overflow buckets. Raises [Invalid_argument] if [hi <= lo] or [bins <= 0]. *)

val add : t -> float -> unit
val add_many : t -> float array -> unit

val counts : t -> int array
(** In-range bin counts, length [bins]. *)

val underflow : t -> int
val overflow : t -> int
val total : t -> int
(** All samples seen, including out-of-range. *)

val bin_center : t -> int -> float

val density : t -> float array
(** Normalised so that the histogram integrates to 1 over the in-range part
    (returns all zeros when empty). *)

val mode : t -> int option
(** Index of the fullest in-range bin; ties break low; [None] when empty. *)
