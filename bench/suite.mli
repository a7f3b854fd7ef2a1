(** The bench suites, one entry each. [bench/main.exe] runs every entry
    as a report section (writing its [results] file and printing its
    table and gate lines); [bench/baseline.exe] runs the entries named
    by [--section] and writes their [baseline] files. Adding a suite is
    one entry in {!all}. *)

open Cachesec_runtime

type outcome = {
  rows : Bench_record.row list;  (** the suite's file, in row order *)
  table : string;  (** rendered against the committed [baseline] *)
  gates : string;  (** one ["  gate <suite> ..."] line per gate *)
}

type t = {
  name : string;  (** ["cache"], ["attacks"], ["e2e"] or ["serve"] *)
  title : string;  (** the report section's heading *)
  results : string;  (** [results/BENCH_<name>.json] *)
  baseline : string;  (** [bench/BENCH_<name>.baseline.json] *)
  schema : string;  (** the [schema] header of both files *)
  run : Run.ctx -> outcome;
}

val all : t list
(** [cache], [attacks], [e2e] (the pipelining and the adaptive-stopping
    rows of one file) and [serve], in run order. The cache and attacks
    gates divide by the frozen [bench/BENCH_<name>.seed.json], which
    nothing re-records. *)
