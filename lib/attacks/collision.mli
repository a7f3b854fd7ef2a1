(** Type 3 — the cache-collision attack (paper Figure 5).

    No attacker interference at all: the cache starts clean, the victim
    encrypts a random plaintext, and the attacker only observes the total
    time. When the first-round lookups of two bytes i and j that share a
    table collide on the same cache line — which happens exactly when
    [p_i XOR p_j] agrees with [k_i XOR k_j] at line granularity — the
    second lookup hits and the block is faster. Binning times by
    [p_i XOR p_j] recovers the high nibble of [k_i XOR k_j]. *)

type config = {
  trials : int;
  byte_i : int;
  byte_j : int;  (** must satisfy [byte_i <> byte_j] and
                     [byte_i mod 4 = byte_j mod 4] (same table) *)
  victim_prefetch : bool;
      (** the software mitigation the paper cites ([34], [16]): the
          victim preloads all tables at the start of each operation,
          making reuse independent of the secret *)
}

val default_config : config
(** 20000 trials over bytes 0 and 4, no prefetching. *)

type result = {
  avg_times : float array;  (** 256 bins over delta = p_i XOR p_j *)
  counts : int array;
  scores : float array;  (** negated, normalised times: higher = hotter *)
  best_delta : int;
  true_delta : int;  (** k_i XOR k_j *)
  nibble_recovered : bool;
  separation : float;
}

val run : victim:Victim.t -> rng:Cachesec_stats.Rng.t -> config -> result
(** The cache is flushed before every trial (the cleaning prerequisite
    whose feasibility Section 5 / {!Cleaner} quantifies separately). *)

(** {2 Sharded execution} — see {!Evict_time} for the model. Trials are
    exchangeable (the cache is flushed per trial), so spans merge freely. *)

type partial

val merge_into : partial -> partial -> unit
(** Fold the right partial into the left in place, allocation-free —
    the campaign merge loops consume each partial exactly once, so
    mutating the running accumulator is safe. The right argument is
    unchanged. *)

val observe : partial -> Cachesec_stats.Sequential.observation
(** The adaptive runtime's estimator hook: a [Mean_rel] over the span's
    observed whole-block times (see {!Evict_time.observe}). *)

val run_span :
  victim:Victim.t -> rng:Cachesec_stats.Rng.t -> count:int -> config -> partial

val finalize : victim:Victim.t -> config -> partial -> result
