(** Closed-form pre-PAS: the probability that an attacker cleans the
    victim's cache set within k memory accesses (paper Section 5,
    Figure 8).

    Under LRU the attacker succeeds deterministically once k reaches the
    associativity; under random replacement cleaning is the ball-picking
    game whose success probability is the inclusion-exclusion
    coupon-collector sum.

    {b Exact vs curve-fit.} Every formula in this module is an exact
    closed form for the corresponding engine under the cleaning game —
    none is a curve fit. LRU, FIFO and tree-PLRU take the paper's
    Equation (10) step; random replacement the Equation (11)
    coupon-collector sum; MRU, LFU and MFU follow from a self-thrashing
    argument and are cross-checked against Monte-Carlo simulation in the
    test suite. Each policy owns its own arm of the set-associative
    dispatch — no two policies share a pattern — so adding a policy
    forces an explicit (compiler-checked) decision about its formula. *)

open Cachesec_cache

val sa_random : ways:int -> k:int -> float
(** Equation (11): P(all [ways] slots picked in [k] uniform draws).
    Exact. *)

val cleaning_limit :
  ?victim_lines_in_set:int -> ?prefetched:bool -> Spec.t -> float
(** The k -> infinity limit of {!for_spec}: the probability an
    unbounded attacker ever cleans the victim's lines. Every closed
    form is eventually constant in k (Random's coupon sum converges to
    1), so the limit is exactly 0. or 1. — the "cleanable at all" bit
    used by the policy resilience table. *)

val nomo :
  ways:int ->
  reserved:int ->
  victim_lines_in_set:int ->
  k:int ->
  policy:Policy.t ->
  float
(** Section 5G: 0 when the victim fits in the reserved ways; otherwise
    the SA game over the (1 - alpha) w shared ways. *)

val for_spec :
  ?victim_lines_in_set:int -> ?prefetched:bool -> Spec.t -> k:int -> float
(** Dispatch with the paper's assumptions: PL prefetched+locked by
    default, Nomo victim exceeding its reservation by default
    ([victim_lines_in_set] defaults to [ways], the cleaning game's
    seeding), policies taken from the spec. Per architecture:
    - SA and Noisy: the set-associative game, one exact arm per policy.
      LRU, FIFO and tree-PLRU: Equation (10), the step 1{k >= ways}
      (FIFO's k distinct misses are always the set's k oldest fills;
      from any tree state, [ways] consecutive PLRU misses visit [ways]
      distinct leaves). Random: {!sa_random}. MRU, LFU and MFU:
      1{ways = 1 && k >= 1}, because the attacker self-thrashes — each
      miss evicts his own previous fill — so at most one victim line is
      ever cleaned.
    - SP: 0, partitions make cleaning impossible (Section 5C). PL: 0
      when the lines are prefetched and locked, else the SA game.
    - Newcache (Section 5B): 1 - (1 - 1/n)^k for evicting one
      designated physical line, with n the physical line count (512;
      the paper writes n = 2^n).
    - RP and RF (Sections 5D, 5E): the SA game — the attacker disables
      his own permutation, or sets his window to zero.
    - RE (Section 5F): the SA game at k + floor(k / interval) — the
      periodic evictions are free lunches.
    - Nomo: {!nomo}. *)

val figure8_series :
  specs:(string * Spec.t) list -> ks:int list -> (string * (int * float) list) list
(** Named (k, pre-PAS) curves — the series of the paper's Figure 8. *)
