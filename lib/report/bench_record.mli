(** The one record format of every bench file ([BENCH_cache.json],
    [BENCH_attacks.json], [BENCH_e2e.json], [BENCH_serve.json]).

    A file is a header — its [schema] string and, optionally, the
    [telemetry_span] id of the run that wrote it — followed by an
    [entries] array holding one flat row per line:

    {v
{
  "schema": "bench_cache/v2",
  "telemetry_span": 12,
  "entries": [
    {"arch": "sa", "policy": "lru", "accesses": 400000, ...},
    ...
  ]
}
    v}

    A row is an ordered [(key, value)] list. Each suite maps its entry
    record to and from a row; readers look keys up by name, so a file
    whose rows lack a key (an older schema version) still parses when
    the suite gives that key a default. *)

type value = S of string | I of int | F of float
type row = (string * value) list

val write : ?span_id:int -> schema:string -> path:string -> row list -> unit
(** Rows are written in order, keys in row order, as
    [{"key": value, ...}]. Floats are printed with the fewest digits
    (15 or 17 significant) that read back bit-identically; a finite
    float always carries a decimal point or exponent. A non-zero [?span_id] (the telemetry
    span around the bench section) adds the ["telemetry_span"] header
    line, cross-referencing the [TELEMETRY_*.json] of the same run. *)

val read : path:string -> row list
(** Every line of [path] that is a flat [{"k": v, ...}] object (a
    trailing comma allowed), in file order; every other line is
    skipped. [[]] when the file is absent. Never raises on content. *)

(** {2 Typed field getters}

    Each raises [Not_found] when the key is absent or holds another
    type; {!parse} turns that into [None] for the whole row. *)

val str : row -> string -> string
val int : row -> string -> int

val float : row -> string -> float
(** Accepts an integer value too (JSON does not tell them apart). *)

val default : 'a -> (row -> string -> 'a) -> row -> string -> 'a
(** [default d get row key] is [d] when [key] is absent from [row], and
    [get row key] otherwise (so a present key of the wrong type still
    rejects the row). *)

val parse : (row -> 'a) -> row -> 'a option
(** [Some (f row)], or [None] when [f] raises [Not_found]. *)
