(** Per-cache and per-pid access accounting. *)

type snapshot = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;  (** valid lines displaced (any cause) *)
  read_throughs : int;  (** misses served without caching the line *)
  flushes : int;
}

type t

val create : unit -> t
val record : t -> pid:int -> Outcome.t -> unit
val record_flush : t -> pid:int -> unit
val record_eviction : t -> count:int -> unit
(** Extra evictions not tied to an access outcome (e.g. flush_all). *)

(** {2 Hoisted cells (batched run kernels)}

    A batched trace replay serves one pid, so the run kernels resolve
    the global and per-pid accumulator cells once per run and bump them
    field-wise per access — equivalent to {!record} with the matching
    outcome, without materializing an [Outcome.t] on the Fill/Count
    paths. *)

type cell

val global_cell : t -> cell
val cell : t -> int -> cell
(** The pid's accumulator cell (created on first use). *)

val cell_hit : cell -> unit
val cell_miss_cached : cell -> evictions:int -> unit
(** Miss served by a fill displacing [evictions] valid lines (0/1 for
    set-associative fills, up to 2 for Newcache). *)

val cell_miss_uncached : cell -> unit
(** Miss served read-through (PL locked victim, SP cross-partition
    miss, RF window line already cached). *)

val cell_evictions : cell -> int -> unit
(** Add displaced valid lines beyond the ones {!cell_miss_cached}
    counts: RF's read-through miss that still fills a neighbouring line,
    RE's periodic random eviction. *)

val cell_record : cell -> Outcome.t -> unit
(** Bump one cell from a full outcome (the Trace-mode path). *)

val global : t -> snapshot
val for_pid : t -> int -> snapshot
(** All-zero snapshot for a pid never seen. *)

val hit_rate : snapshot -> float
(** [nan] when no accesses. *)

val reset : t -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit
