(** PIFG constructions for the four attack classes (the paper's Figures 3,
    5(b), 6 and 7), parameterised by the cache architecture through
    {!Edge_probs}.

    Computing {!Cachesec_core.Pas.pas} on these graphs and comparing with
    {!Edge_probs.pas_product} exercises Theorem 1 end to end: the product
    over the security-critical path equals the product of the closed-form
    edge probabilities. *)

open Cachesec_cache
open Cachesec_core

val build : ?config:Config.t -> Attack_type.t -> Spec.t -> unit -> Graph.t
(** The attack's PIFG. The cache-collision graph includes the "selected
    memory line" node the paper adds in Figure 5(b) to model the RF
    cache. *)

val pas : ?config:Config.t -> Attack_type.t -> Spec.t -> unit -> float
(** [Pas.pas] of {!build}. *)
