(** Pluggable telemetry sinks.

    A sink receives every {!Event.t} the owning {!Telemetry.t} emits and
    is closed exactly once at context close. Sinks need not be
    thread-safe: the context serializes [emit]/[close] behind a mutex
    (events fire at batch boundaries only, never on the simulator's
    per-access hot path). *)

type t = { emit : Event.t -> unit; close : unit -> unit }

val null : t
(** Drops everything. Prefer {!Telemetry.null} (the whole context) when
    you want the zero-cost off switch: a null [Telemetry.t] never even
    constructs events. *)

val tee : t list -> t
(** Fan every event out to each sink, close them all in order. *)

val memory : unit -> t * (unit -> Event.t list)
(** In-memory sink for tests: the second component returns the events
    emitted so far, in emission order. *)

val progress : ?out:out_channel -> unit -> t
(** Human-readable progress on [out] (default [stderr]): span open/close
    lines indented by nesting depth, ≤ ~9 batch-progress lines per span,
    per-domain busy summaries, gauges and final counter totals. *)

val default_json_path : run:string -> string
(** ["results/TELEMETRY_<run>.json"] — the conventional export path. *)

val json : ?run:string -> path:string -> unit -> t
(** Machine-readable sink: buffers events and, at close, writes a
    [telemetry/v1] document to [path] (creating parent directories):
    a JSON object with ["schema"], ["run"] and an ["events"] array
    holding one fixed-key-order object per line ({!Event.to_json_line}),
    so the file round-trips through {!read_json} without a JSON
    dependency. *)

val read_json : path:string -> (string * string * Event.t list) option
(** Parse a {!json}-produced file: [(schema, run, events)]. [None] if
    the file is absent or has no schema line. *)
