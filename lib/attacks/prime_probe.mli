(** Type 2 — the prime-and-probe attack (paper Figure 6).

    Each trial: the attacker primes every cache set with his own lines;
    the victim encrypts a random plaintext; the attacker probes each set
    and classifies each of his own access times as hit or miss. A
    candidate key byte predicts which set the victim's first-round lookup
    touched; the candidate whose predicted sets were missed most
    consistently wins (for the true candidate the predicted set is missed
    on {e every} trial on a leaky cache). *)


type config = {
  trials : int;
  target_byte : int;
  lock_victim_tables : bool;
}

val default_config : config
(** 2000 trials, byte 0, no locking. *)

type result = {
  set_miss_rate : float array;  (** per-set average classified probe misses *)
  scores : float array;  (** 256 candidate scores (Figure 10's series) *)
  best_candidate : int;
  true_byte : int;
  nibble_recovered : bool;
  separation : float;
}

val run : victim:Victim.t -> attacker_pid:int -> rng:Cachesec_stats.Rng.t -> config -> result

(** {2 Sharded execution} — see {!Evict_time} for the model. Trials are
    exchangeable here (no global-index dependence), so a span is
    identified by its length alone. *)

type partial

val merge_into : partial -> partial -> unit
(** Fold the right partial into the left in place, allocation-free —
    the campaign merge loops consume each partial exactly once, so
    mutating the running accumulator is safe. The right argument is
    unchanged. Raises [Invalid_argument] when the two partials were
    produced against different cache geometries. *)

val observe : partial -> Cachesec_stats.Sequential.observation
(** The adaptive runtime's estimator hook: a [Proportion] — the best
    candidate's per-trial hit rate over the span. Computed from the
    merged partial's existing accumulators; the zero-allocation trial
    loop is never instrumented (the per-access allocation budget in
    test_attacks pins this). *)

val run_span :
  victim:Victim.t ->
  attacker_pid:int ->
  rng:Cachesec_stats.Rng.t ->
  count:int ->
  config ->
  partial
(** Accumulate [count] trials ([config.trials] is ignored by the span). *)

val finalize : victim:Victim.t -> config -> partial -> result
