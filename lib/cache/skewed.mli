(** Skewed randomized cache (extension beyond the paper's nine designs;
    in the spirit of ScatterCache, Werner et al. 2019).

    The cache is organised as [ways] direct-mapped banks of [sets] slots.
    A memory line may live in bank i only at slot [h_i(domain, line)],
    where each (security domain, bank) pair has its own secret index
    permutation — so no two domains agree on where a line can sit, and an
    attacker cannot build a deterministic conflict set for a victim line.
    On a miss a uniformly random bank is chosen and its hashed slot
    replaced.

    This module demonstrates the library's extensibility claim: a cache
    that post-dates the paper, modelled by the same PIFG machinery (see
    examples/evaluate_new_cache.ml and the skewed ablation in the bench
    harness). Like Newcache and RP, hits are per-domain (the PID feature),
    so flush-and-reload across domains finds nothing. *)

type t

val create : ?config:Config.t -> rng:Cachesec_stats.Rng.t -> unit -> t
(** Geometry: [ways] banks of [sets] slots ({!Config.standard}: 8 banks
    of 64). Per-domain bank permutations are drawn lazily from [rng]. *)

val banks : t -> int
val slots_per_bank : t -> int

val slot_of : t -> pid:int -> bank:int -> int -> int
(** The slot the line hashes to in a bank under the pid's keys (exposed
    for tests; a real implementation would keep this secret). *)

val engine : t -> Engine.t
(** Its [reset ~rng] also forgets the bank permutations, which are then
    drawn again from [rng] as on a fresh cache. *)
