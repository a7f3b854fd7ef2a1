(** Telemetry context: monotonic spans, merged counters, gauges.

    The context is the single handle the rest of the system threads
    around (via [Run.ctx]). Its cost model is the design:

    - {!null} is a constant: every operation on it is one pattern match,
      zero allocation — safe to leave on the simulator's hot path and
      guarded by the zero-alloc tests.
    - An active context pays one mutex acquisition per {e event} (span
      edges, batch boundaries), never per simulated cache access.

    Counters follow the trial runtime's merge discipline: each domain
    accumulates into its own unsynchronized table (registered once via a
    lock-free atomic cons), and {!counters} merges by name-summation
    after the scheduler has joined its workers. Batch increments are
    pure functions of the batch, so merged totals are bit-identical for
    [jobs:1] and [jobs:N]; only timings vary. *)

type span
(** A started span. Value-compare by {!span_id}. *)

type t

val null : t
(** The zero-cost default: emits nothing, allocates nothing. *)

val is_null : t -> bool

val make : sink:Sink.t -> unit -> t
(** Active context writing to [sink]. Event times are seconds relative
    to this call. *)

val now_s : t -> float
(** Seconds since {!make} ([0.] on {!null}). *)

val null_span : span
(** Span id [0]: "no parent". The default parent everywhere. *)

val span : t -> ?parent:span -> string -> span
(** Open a span (emits [Span_start]). On {!null} returns {!null_span}. *)

val close_span : t -> span -> unit
(** Emit [Span_end] with the span's duration. No-op on {!null} and on
    {!null_span}. *)

val with_span : t -> ?parent:span -> string -> (span -> 'a) -> 'a
(** [span] / [close_span] bracket; closes on exception too. *)

val span_id : span -> int
(** Unique id ([>= 1]; [0] for {!null_span}) — the cross-reference key
    written into e.g. [BENCH_cache.json]. *)

val count : t -> string -> int -> unit
(** Add to a named counter in the calling domain's local table.
    Lock-free; safe from scheduler workers. *)

val counters : t -> (string * int) list
(** Merged counter totals, sorted by name. Call after workers joined. *)

val gauge : t -> ?span:span -> string -> float -> unit
(** Emit a point-in-time sampled value attributed to [span]. *)

val batch_start :
  t -> span:span -> index:int -> total:int -> domain:int -> t_s:float -> unit

val batch_end :
  t -> span:span -> index:int -> total:int -> domain:int -> start_s:float ->
  unit

val domain_busy :
  t -> span:span -> domain:int -> busy_s:float -> units:int -> unit

val close : t -> unit
(** Emit merged counter totals, then close the sink. Idempotent. *)
