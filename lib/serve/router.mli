(** Query routing for the PAS query server: memo lookup, closed-form
    computation, and classification of simulation-backed work.

    The router is transport-agnostic — it maps decoded queries to
    {!decision}s and never touches sockets or the pool. Closed-form
    queries (pas/prepas/resilience/table) are answered inline: a memo
    hit returns the cached encoded reply, a miss computes through
    [lib/analysis] and memoizes. Simulation-backed queries (validate)
    return {!Sim} on a memo miss; the {e server} decides admission
    (dedup join, pool submit, or overloaded) and reports completed
    campaigns back through {!note_sim_done} so the answer is memoized
    for every later asker.

    The memo is one table keyed by {!Protocol.canonical}. A canonical
    line is its own key, so {!route} probes the memo with the line as
    sent before parsing it: a repeated canonical line is answered by
    one hashtable probe — the memo-hit fast path the [bench_serve] gate
    measures. A cold line, an error line or a control verb never equals
    a key; any other spelling of a memoized question is decoded and
    hits through its canonical form.

    Errors are never memoized — a transient failure must not poison the
    cache for the lifetime of the daemon. *)

type t

type decision =
  | Now of string
      (** Answer ready: an encoded reply line ([Protocol.encode_reply]).
          Also used for decode errors ([error ...] replies). *)
  | Sim of { key : string option; run : unit -> string }
      (** Simulation needed. [key] is the canonical memo key ([None]
          when the query is [cold] — no dedup, no memoization); [run]
          performs the campaign and encodes the reply. [run] is safe to
          execute inside a pool worker: the campaign context is serial
          ([jobs = None]), so it never re-enters the pool. *)
  | Quit of string
      (** Shutdown requested; the string is the encoded [ok] reply to
          send before exiting. *)

val create :
  ?telemetry:Cachesec_telemetry.Telemetry.t -> ?max_memo:int -> unit -> t
(** [max_memo] bounds the answer cache (default 65536 entries). Counters
    are mirrored to [telemetry] under [serve.*]. *)

val route : t -> string -> decision
(** Route one query line. A [stats] line answers the counters
    closed/hits/misses/dedup_joins/overloaded/sim_runs/sim_errors plus
    memo_size, queue_depth (live {!Cachesec_runtime.Pool.queued_tasks})
    and uptime_s. *)

val note_sim_done : t -> key:string option -> string -> unit
(** Record a completed simulation campaign's encoded reply under [key]
    (no-op for [None]). Call only for successful campaigns. *)

val note_sim_error : t -> unit
val note_dedup_join : t -> unit
val note_overloaded : t -> unit
(** Outcome counters owned by the server's admission logic. *)
