(** Streaming summary statistics (Welford's online algorithm).

    Used to accumulate per-plaintext-byte timing bins in the attacks
    (Algorithm 1 of the paper keeps a running sum; we also need variance to
    judge statistical separation of the bins). *)

type t
(** A mutable accumulator. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two observations. *)

val std : t -> float
(** Square root of {!variance} — the UNBIASED SAMPLE convention
    (divide by [n-1]). This is the right estimator here because a
    summary always holds a sample of a larger trial population and its
    spread feeds inference (separation judgments, the adaptive
    runtime's [Sequential.mean_half_width]). Contrast
    [Cachesec_experiments.Throughput.stddev_of], which deliberately
    uses the POPULATION convention (divide by [n]) for bench error
    bars over the complete set of repetitions. Both choices are pinned
    by regression tests in test_stats. *)

val min : t -> float
val max : t -> float
val total : t -> float
val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having seen both
    streams (Chan et al. parallel update). *)

val merge_into : t -> t -> unit
(** [merge_into a b] folds [b]'s stream into [a] in place (same update
    as {!merge}, no allocation). [b] is unchanged. *)

val of_array : float array -> t
val pp : Format.formatter -> t -> unit
