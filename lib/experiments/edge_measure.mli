(** Edge-level validation: measure the paper's conditional probabilities
    directly from the simulator with targeted micro-experiments, instead
    of only checking end-to-end attack outcomes.

    Three measurable stages cover every architecture-dependent edge of
    Tables 3 and 5:

    - {e eviction stage} (p1·p2·p3 of evict-and-time): the victim fills
      his set, the attacker performs exactly one fresh conflicting
      access, and we observe whether one designated victim line is gone;
    - {e reuse stage} (p0·p4^gap of the collision attack): the victim
      touches a line, performs [gap] unrelated accesses, touches it
      again, and we observe the hit;
    - {e cross-context stage} (p0·p4 of flush-and-reload): the victim
      fetches a shared line and the attacker's immediate reload either
      hits or does not.

    Each measurement is reported next to the closed form computed by
    {!Cachesec_analysis.Edge_probs} from the same spec. *)

type measurement = {
  label : string;
  arch : string;
  closed_form : float;
  measured : float;
  samples : int;
}

val eviction_stage :
  ?samples:int -> ?seed:int -> Cachesec_cache.Spec.t -> measurement
(** 20000 samples by default. For Nomo the designated line is one that
    spilled into a shared way (the paper's interference case). *)

val reuse_stage :
  ?samples:int -> ?seed:int -> ?gap:int -> Cachesec_cache.Spec.t -> measurement
(** [gap] defaults to 100 unrelated victim accesses between the two
    touches (amplifies RE's per-access decay into a measurable range). *)

val cross_context_stage :
  ?samples:int -> ?seed:int -> Cachesec_cache.Spec.t -> measurement

val table : ?samples:int -> ?seed:int -> unit -> measurement list
(** All three stages for the nine caches. *)

val render : measurement list -> string
