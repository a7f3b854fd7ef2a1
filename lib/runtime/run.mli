(** The experiment-calling context: one record instead of the
    [?jobs seed] optional tails that every experiment entry point
    had grown independently.

    A [ctx] is cheap, immutable and copied freely; the smart
    constructors below are the intended way to build one. Every
    ctx-taking experiment function ([Driver.submit_*],
    [Validation.cells], [Figures.render_*], ...) promises the trial
    runtime's contract: the result depends on [seed]/[quick] only,
    never on [jobs] or [telemetry]. *)

open Cachesec_telemetry

type ctx = {
  seed : int;  (** root RNG seed of the experiment *)
  jobs : int option;
      (** worker domains, per {!Scheduler.resolve_jobs}: [None] serial,
          [Some 0] auto, [Some n] exactly [n] *)
  telemetry : Telemetry.t;  (** {!Telemetry.null} = zero-cost off *)
  parent : Telemetry.span;
      (** span under which experiment spans nest
          ({!Telemetry.null_span} = root) *)
  quick : bool;  (** reduced trial counts (the CLIs' [--quick]) *)
}

val default : ctx
(** [seed 42], serial, null telemetry, full scale. *)

val make :
  ?jobs:int -> ?telemetry:Telemetry.t -> ?quick:bool -> seed:int -> unit ->
  ctx

val with_seed : int -> ctx -> ctx
val with_jobs : int -> ctx -> ctx
val with_parent : Telemetry.span -> ctx -> ctx

val quick : ctx -> ctx
(** Reduced trial counts (what [Figures.trials_for] reads). *)

val batch_seed : ctx -> int -> int
(** Seed of trial batch [i]: [ctx.seed] itself for batch 0 (keeping
    single-batch runs bit-identical to the legacy serial loops and to
    the pre-runtime results), [Rng.derive_seed ctx.seed i] otherwise.
    The single point of seed derivation for the experiments layer. *)

val of_cmdline :
  ?default_seed:int -> ?run:string -> unit -> ctx Cmdliner.Term.t
(** Shared Cmdliner wiring for [pas_tool] and [bench]: [--seed],
    [--quick], [--jobs N], [--progress] (human-readable telemetry on
    stderr) and [--metrics PATH] (telemetry/v1 JSON written at exit,
    conventionally [results/TELEMETRY_<run>.json]). Registers an
    [at_exit] close for any active telemetry, so the JSON file is
    written on every exit path. *)
