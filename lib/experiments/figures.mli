(** Rendered reproductions of the paper's figures.

    Figures 4 and 8 are analytical curves; Figures 9 and 10 are
    validation experiments that run the actual attacks against the cache
    simulator (the substitute for the simulation studies the paper cites
    in Section 6).

    The experimental figures ([render_*]) take one
    {!Cachesec_runtime.Run.ctx} (seed, jobs, telemetry, quick-scale).
    Each wraps its work in a telemetry span named after the figure,
    nested under [ctx.parent]. *)

open Cachesec_runtime

val trials_for : Run.ctx -> int -> int
(** [trials_for ctx n] is [n] at full scale; with [ctx.quick] it divides
    [n] by 10 (min 50), small enough for the test suite. *)

val figure4 : unit -> string
(** p5 (attacker's per-observation success probability) vs noise sigma. *)

val figure8 : ?policy:Cachesec_cache.Policy.t -> unit -> string
(** Analytical pre-PAS vs attacker accesses k for the paper's cache
    set: 8/32-way SA-RP-RF, RE, Nomo, Newcache, SP/PL. Default policy
    is the paper's random replacement; [policy] rebinds every spec via
    {!Cachesec_cache.Spec.with_policy}. *)

val figure8_series : ks:int list -> (string * (int * float) list) list
(** The data behind {!figure8} (exposed for CSV export and tests). *)

val render_figure9 : ?pipeline:bool -> Run.ctx -> string
(** Evict-and-time validation on the conventional SA cache vs Newcache:
    average encryption time per plaintext-byte value (flat = no leak).
    Trials are sharded over the Domain-parallel trial runtime; the
    rendered figure is independent of [ctx.jobs]. [pipeline] (default
    [true]) submits both campaigns onto the pool before the first await;
    [false] runs them strictly sequentially. The render is bit-identical
    either way. *)

val render_figure10 : ?pipeline:bool -> Run.ctx -> string
(** Prime-and-probe validation across six caches (SA, SP, PL, Newcache,
    RP, RE): normalised candidate-key score profiles. [?pipeline] as in
    {!render_figure9}, over all six campaigns. *)

val render_prepas_crosscheck : Run.ctx -> string
(** Closed-form pre-PAS vs Monte-Carlo cleaning game, per architecture,
    with the documented RP deviation called out. Each (cache, k) cell
    runs its sample budget through the trial runtime under a seed
    derived from [ctx.seed]; all 40 cells' campaigns are submitted onto
    the pool before the first await. *)
