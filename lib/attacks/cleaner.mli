(** The attacker's cache-cleaning prerequisite (paper Section 5).

    Collision and flush-and-reload attacks need the security-critical data
    out of the cache first. This module Monte-Carlo-estimates the
    probability that an attacker succeeds by issuing [accesses] distinct
    memory reads that map into the victim's cache set — the empirical
    counterpart of the paper's closed-form pre-PAS (which
    {!Cachesec_analysis.Prepas} computes analytically).

    Per sample: the victim fills the target set ([ways] of his lines; a
    single line for Newcache, whose success criterion is evicting one
    designated physical line; locked lines for PL — its intended use),
    then the attacker issues his reads, and success is judged by whether
    any victim target line still hits.

    Known model deviation (documented in DESIGN.md): for the RP cache the
    paper assumes the attacker can opt out of the permutation feature and
    clean like on an SA cache; our simulated RP always applies the
    randomized interference handling, so the Monte-Carlo estimate is
    {e lower} than the paper's SA-equal curve. *)

open Cachesec_cache

val clean_once :
  Spec.t -> rng:Cachesec_stats.Rng.t -> accesses:int -> bool
(** One sample of the cleaning game on a cache built from [rng].
    [accesses] must be non-negative. *)

val count_wins :
  Spec.t -> accesses:int -> samples:int -> rng:Cachesec_stats.Rng.t -> int
(** Number of successful samples out of [samples] — the mergeable
    (additive) partial behind {!monte_carlo}, used by the trial runtime
    to shard the cleaning game across Domains. Equal to {!clean_once}
    summed over [samples] successive [Rng.split rng] streams, but one
    engine serves them all: it is built for the first sample and reset
    ({!Cachesec_cache.Engine.t.reset}) on the next stream before each
    later one ({!Cachesec_cache.Factory.sampler}), so a sample costs the
    lines the previous one touched, not a construction. [samples] must
    be positive and [accesses] non-negative. *)

val monte_carlo :
  Spec.t -> accesses:int -> samples:int -> rng:Cachesec_stats.Rng.t -> float
(** Fraction of successful samples. [samples] must be positive. *)
