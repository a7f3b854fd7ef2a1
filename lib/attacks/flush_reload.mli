(** Type 4 — the flush-and-reload attack (paper Figure 7).

    The AES tables are a shared library: the attacker can name their
    lines directly. Each trial he flushes every table line, lets the
    victim encrypt a random plaintext, then reloads the target table's 16
    lines and classifies each of his own access times. A reload hit means
    the victim fetched that line; the candidate key byte whose predicted
    first-round line was hit most consistently wins. Architectures whose
    per-process tags prevent cross-context hits (Newcache, RP) produce a
    flat profile — the paper's p4 = 0. *)

type config = { trials : int; target_byte : int; victim_prefetch : bool }

val default_config : config
(** 2000 trials, byte 0, no prefetching. [victim_prefetch] applies the
    paper's cited software mitigation (preload all tables per
    operation), which blinds operation-granularity reloads. *)

type result = {
  line_hit_rate : float array;  (** reload hit frequency per target-table line *)
  scores : float array;
  best_candidate : int;
  true_byte : int;
  nibble_recovered : bool;
  separation : float;
}

val run : victim:Victim.t -> attacker_pid:int -> rng:Cachesec_stats.Rng.t -> config -> result

(** {2 Sharded execution} — see {!Evict_time} for the model. Trials are
    exchangeable (every table line is flushed per trial). *)

type partial

val merge_into : partial -> partial -> unit
(** Fold the right partial into the left in place, allocation-free —
    the campaign merge loops consume each partial exactly once, so
    mutating the running accumulator is safe. The right argument is
    unchanged. Raises [Invalid_argument] when the two partials cover
    different line counts. *)

val observe : partial -> Cachesec_stats.Sequential.observation
(** The adaptive runtime's estimator hook: a [Proportion] — the best
    candidate's reload-hit rate over the span, from the merged partial's
    existing accumulators (the zero-allocation trial loop is never
    instrumented). *)

val run_span :
  victim:Victim.t ->
  attacker_pid:int ->
  rng:Cachesec_stats.Rng.t ->
  count:int ->
  config ->
  partial

val finalize : victim:Victim.t -> config -> partial -> result
