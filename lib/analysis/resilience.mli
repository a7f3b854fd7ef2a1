(** The paper's qualitative resilience classification (Table 7).

    A cache is highly resilient to an attack class when its PAS is 0 or
    close to 0. Two refinements follow the paper's own judgment:

    - noise-based reduction does not count as resilience: the noisy
      cache's non-trivial PAS reductions only slow an attacker, since
      averaging over trials recovers the signal
      ({!Noise.trials_to_overcome}), and the paper marks the noisy cache
      'X' in every column;
    - pre-PAS complements PAS: the paper recommends reading them
      together, which {!combined} exposes. *)

open Cachesec_cache

type verdict = High | Low
(** High resilience (the paper's check mark) vs low (the paper's X). *)

val classify : ?threshold:float -> Spec.t -> Attack_type.t -> verdict
(** High when PAS is below [threshold]. The default 0.01 separates
    "close to 0" PAS values: the largest the paper treats as resilient
    is RF's 7.75e-3, the smallest it marks X is SA's Type 2 at
    1.56e-2. *)

val table7 : ?threshold:float -> unit -> (string * verdict array) list
(** Verdicts for the nine caches x four types (Table 7). *)

val paper_table7 : (string * verdict array) list
(** The check/X pattern printed in the paper. *)

type combined = {
  pas : float;
  prepas_at : int -> float;  (** pre-PAS as a function of attacker accesses *)
  verdict : verdict;
}

val combined : ?threshold:float -> Spec.t -> Attack_type.t -> combined
val verdict_to_string : verdict -> string
(** "high" / "low". *)

val verdict_mark : verdict -> string
(** The paper's glyphs: "Y" for high, "X" for low. *)

(** {2 Policy resilience}

    The policy x attack x architecture refinement of Table 7: every
    architecture re-evaluated under each replacement policy of
    {!Cachesec_cache.Policy.all}. The PIFG edge probabilities are
    policy-agnostic, so the policy axis acts through the k -> infinity
    cleaning limit ({!Prepas.cleaning_limit}): a policy under which the
    attacker cannot clean the victim's set (MRU/LFU/MFU self-thrash in
    multi-way sets) zeroes the effective PAS of the miss-based attack
    types. *)

type policy_cell = {
  policy : Policy.t;
  attack : Attack_type.t;
  pas : float;  (** the raw PIFG PAS, identical across policies *)
  limit : float;
      (** {!Prepas.cleaning_limit} for miss-based attacks, 1 otherwise *)
  effective : float;  (** [pas *. limit] — what an unbounded attacker gets *)
  bits : float;
      (** absorbed information per observation of the induced erasure
          channel: [effective] times log2 of the symbol space (cache
          sets for miss-based attacks, memory lines for reuse-based) *)
  verdict : verdict;  (** {!classify} applied to the {e effective} PAS *)
}

val policy_cell :
  ?threshold:float ->
  ?config:Config.t ->
  Spec.t ->
  Policy.t ->
  Attack_type.t ->
  policy_cell
(** One cell of the matrix; the spec is rebound with
    {!Cachesec_cache.Spec.with_policy} first. *)

val policy_matrix :
  ?threshold:float ->
  ?config:Config.t ->
  ?specs:Spec.t list ->
  ?policies:Policy.t list ->
  unit ->
  (Spec.t * (Policy.t * policy_cell list) list) list
(** The full matrix, one {!policy_cell} per attack type in
    {!Attack_type.all} order. Defaults: the paper architectures whose
    replacement policy is a free parameter ({!Cachesec_cache.Spec.all_paper}
    minus Newcache, whose SecRAND replacement is part of the design) x
    {!Cachesec_cache.Policy.all}. *)
