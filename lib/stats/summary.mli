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
    runtime's [Sequential.mean_half_width]). Contrast the bench suites'
    error bars (bench/throughput.ml), which deliberately use the
    POPULATION convention (divide by [n]) over the complete set of
    repetitions. Both choices are pinned by a regression test in
    test_bench. *)

val merge_into : t -> t -> unit
(** [merge_into a b] folds [b]'s stream into [a] in place, as if [a]
    had also seen [b]'s observations (Chan et al. parallel update, no
    allocation). [b] is unchanged. *)

val of_array : float array -> t
