(** Multi-line attacks (the paper's closing note on Table 6: "when
    considering multiple line evictions, the randomization based secure
    caches can have even lower PAS").

    Real first-round AES attacks must usually control several table
    lines, not one. If an attack only works when all [m] designated
    victim lines are evicted (and the evictions are independent, which
    holds for the randomizing architectures), the eviction stage's
    probability is raised to the m-th power while the deterministic
    stages stay put. *)

open Cachesec_cache

val advantage_table : ?config:Config.t -> lines:int -> unit -> (string * float * float) list
(** (arch, single-line PAS, multi-line PAS) for Type 1 across the nine
    caches, in {!Cachesec_cache.Spec.all_paper} order — the data behind
    the bench's multi-line ablation. The PAS of a Type 1 attack that
    requires [lines] distinct victim lines evicted is
    (p1 p2 p3)^lines * p4 * p5; with one line it is
    {!Attack_models.pas}. [lines] must be positive. *)
