(** Two-level cache hierarchy: per-core private L1s in front of a shared
    L2/LLC.

    The paper's introduction cites LLC attacks (Liu et al. 2015, Yarom &
    Falkner 2014) as the practical setting for flush-and-reload: each
    process has its own small L1, and the interesting interference
    happens in the shared last-level cache. This module composes any
    {!Engine.t} as the shared level with small private set-associative
    L1s created on demand per pid.

    Timing: L1 hit = 0, L1 miss/L2 hit = {!l2_hit_time}, both miss = 1
    (normalised to the memory-vs-L1 gap). The composite reports a
    {!Outcome.t} whose event is Hit when {e any} level holds the line
    (latency below memory); the refined three-level latency is available
    via {!access_timed}.

    The hierarchy is non-inclusive: fills go to both levels, L2 evictions
    do not back-invalidate L1s (like many real LLCs before inclusive
    designs; this is the simplest model that preserves the attack
    semantics, since attacker and victim never share an L1). *)

type t

val l2_hit_time : float
(** 0.4 — between the L1 hit (0) and memory (1). *)

val create :
  ?l1_config:Config.t ->
  ?l1_policy:Policy.t ->
  l2:Engine.t ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** [l1_config] defaults to a 4 KB 4-way cache (64 lines). The shared
    level is any engine built by {!Factory.build} (so every secure L2
    design can be evaluated in the hierarchy). *)

val l2 : t -> Engine.t
val l1_for : t -> pid:int -> Engine.t
(** The pid's private L1 (created on first use). *)

val access : t -> pid:int -> int -> Outcome.t
val access_timed : t -> pid:int -> int -> Outcome.t * float
(** Also returns the three-level latency (before observation noise). *)

val flush_line : t -> pid:int -> int -> bool
(** clflush semantics: coherence-wide — removes the line from {e every}
    private L1 and the shared L2 (true if removed anywhere). *)

val engine : t -> Engine.t
(** Uniform view. [sigma] is inherited from the L2 engine. *)
