(** Monotonic time source (CLOCK_MONOTONIC via a C stub).

    [Unix.gettimeofday] is wall-clock time and moves when NTP steps the
    host clock; a step in the middle of a benchmark section skews the
    measured wall-clock and can flip a perf-gate verdict. Everything in
    this codebase that measures a {e duration} — telemetry event
    timestamps, [Scheduler.timed], the bench suites' stopwatches, the
    domain pool's busy accounting — uses this module instead. *)

val now_s : unit -> float
(** Seconds since an unspecified (boot-time) origin. Only differences
    are meaningful. *)

val elapsed_s : since:float -> float
(** [now_s () -. since]. *)
