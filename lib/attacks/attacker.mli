(** Attacker-side primitives shared by the attack implementations:
    conflict-set construction, priming and probing. The attacker's own
    memory lives at [base] (far above the victim's tables) so his lines
    are his under every ownership model.

    The priming/evicting entry points here compute conflict lines
    arithmetically and allocate nothing; hot per-trial loops that probe
    whole caches should use {!Probe_plan}, which precompiles the line
    addresses once and reuses per-set scratch buffers. *)

open Cachesec_cache

val default_base : int
(** 1 lsl 20 — a line number far from any victim data. *)

val nth_conflict_line : Config.t -> ?base:int -> set:int -> int -> int
(** [nth_conflict_line cfg ~set k] is the [k]-th distinct attacker line
    mapping (under conventional indexing) to [set]: base aligned down to
    the set stride, plus [set + k*sets]. Pure arithmetic — this is the
    element formula behind {!probe_all_sets} and {!Probe_plan}. Raises
    [Invalid_argument] on a bad set. *)

val evict_set : Engine.t -> pid:int -> ?base:int -> int -> unit
(** Access [ways] attacker lines mapping to [set] — the "evict" / "prime"
    step for one set. Allocation-free: the lines are computed inline. *)

val prime_all_sets : Engine.t -> pid:int -> ?base:int -> unit -> unit
(** Prime every set with [ways] attacker lines. *)

type probe = {
  true_misses : int;  (** ground truth from the simulator *)
  classified_misses : int;
      (** what the attacker concludes after classifying each noisy
          per-access time (equals [true_misses] when sigma = 0) *)
  time : float;  (** total observed probe time, noise included *)
}

val probe_all_sets :
  Engine.t -> Cachesec_stats.Rng.t -> pid:int -> ?base:int -> unit -> probe array
(** Re-access the priming lines of every set, indexed by set number.
    Allocates a record per set; per-trial loops should prefer
    {!Probe_plan.probe_all}. *)
