(** Client/server throughput benchmark for the PAS query server,
    exported as [BENCH_serve.json] (schema {!schema}), one
    {!Cachesec_report.Bench_record} row per mix like the other bench
    files.

    The server is a child process: the benchmark re-execs its own
    executable with a sentinel argv that {!child_entry} intercepts
    ([Unix.fork] is off the table — on OCaml 5 it is forbidden for
    the rest of the process lifetime once any domain has been
    spawned, and the pool usually has). The parent drives it over the
    real socket, so every number includes the full protocol path —
    framing, syscalls, decode, route.

    Three mixes, measured separately because they answer different
    questions:
    - ["memo-hit"]: one [table] query repeated [batch] times per frame
      against a warmed memo — the fast path. QPS amortizes the frame
      round trip over the batch; p50/p99 are per-query (frame time /
      batch).
    - ["cold"]: the same [table] query with the [cold] flag, one query
      per frame — every round trip recomputes the closed form
      ({!Cachesec_analysis.Pas_tables.rows_for}, all nine
      architectures). This is the gate's denominator.
    - ["sim"]: quick-scale cold [validate] cells, one per frame — the
      simulation-backed path through the admission gate (single
      repetition; these are seconds-scale, variance is visible in
      p50/p99).

    The hard gate: memo-hit QPS >= {!default_gate_threshold} x cold
    QPS. Batch sizes are recorded in the entries — the comparison is
    honest about amortization: the served fast path is only worth its
    name if batching + memoization beat recomputation by a wide
    margin. *)

open Cachesec_runtime
module Bench_record = Cachesec_report.Bench_record

type entry = {
  mix : string;  (** "memo-hit" | "cold" | "sim" *)
  queries : int;  (** timed queries per repetition *)
  batch : int;  (** queries per frame *)
  seconds : float;  (** fastest repetition *)
  qps : float;  (** [queries /. seconds] *)
  p50_us : float;  (** per-query latency percentiles of the fastest *)
  p99_us : float;  (** repetition, in microseconds *)
  warmup : int;  (** warm-up queries before the first stopwatch *)
  repeats : int;  (** timed repetitions behind [seconds]/[stddev] *)
  stddev : float;  (** of QPS across the repetitions *)
}

val default_socket : string
(** [results/.serve-bench.sock] — inside the repo tree. *)

val child_flag : string
(** ["--serve-bench-child"] — the sentinel argv for the server child. *)

val child_entry : unit -> unit
(** Call FIRST in the [main] of any executable that runs {!bench}
    (before Cmdliner parses argv). If the process was spawned as
    [argv = [| _; child_flag; socket |]], runs an [Inline] server on
    [socket] and exits; otherwise returns immediately. *)

val bench : Run.ctx -> entry list
(** Spawn an [Inline] server child (re-exec via {!child_entry}),
    measure the three mixes, shut it down cleanly (the socket file is
    gone on return). [ctx.quick] economises on frames and
    repetitions. Gauges [serve_bench.<mix>.qps] are reported to
    [ctx.telemetry]. *)

val default_gate_threshold : float
(** 50. *)

val gate : ?threshold:float -> entry list -> (float * bool) option
(** [(memo-hit QPS / cold QPS, ratio >= threshold)]; [None] when either
    mix is missing. *)

val schema : string
(** ["bench_serve/v1"]. *)

val to_row : entry -> Bench_record.row

val of_row : Bench_record.row -> entry option
(** [None] for a row of another suite. *)

val find : entry list -> mix:string -> entry option
val render : ?baseline:string -> entry list -> string
(** Human-readable table; with a readable [baseline] file, adds a
    per-mix QPS speedup column against it. *)
