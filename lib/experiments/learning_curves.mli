(** Sample complexity: how many trials an attacker needs before the key
    nibble is reliably recovered, as a function of the cache's PAS — the
    operational meaning of "PAS close to 0 is resilient". A flush-and-
    reload campaign is repeated over several seeds for a grid of trial
    counts; the curve reports the recovery frequency. Lower PAS shifts
    the curve right (more trials needed); PAS = 0 never recovers. *)

open Cachesec_runtime

type curve = {
  arch : string;
  pas_type4 : float;
  points : (int * float) list;  (** (trials, recovery frequency) *)
}

val curve : ?seeds:int -> ?grid:int list -> Run.ctx -> Cachesec_cache.Spec.t -> curve
(** Defaults: 8 seeds, trials grid [50; 100; ...; 3200]. The
    (trials x seed) campaigns fan out over the Domain-parallel trial
    runtime under a span [learning-curve:<cache>]; the curve is
    independent of [ctx.jobs] (each campaign keeps its legacy
    per-instance [ctx.seed + 1000 i] seed). *)

val standard_specs : Cachesec_cache.Spec.t list
(** SA (PAS 1.0), RE (0.9998), Noisy (0.691), RF (7.75e-3),
    Newcache (0). *)

val curves : ?seeds:int -> Run.ctx -> curve list
(** One {!curve} per {!standard_specs}, under one [learning-curves]
    span. *)

val render : curve list -> string
val csv_rows : curve list -> string list list
