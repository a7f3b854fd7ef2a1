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

(** {2 Per-pid cells (batched runs)}

    A batched trace replay serves one pid, so the run loops resolve the
    pid's accumulator cell once per run and bump it per access —
    equivalent to {!record} with the matching outcome, without
    materializing an [Outcome.t] on the Fill/Count paths. *)

type cell

val cell : t -> int -> cell
(** The pid's accumulator cell (created on first use). *)

val cell_hit : cell -> unit
(** A hit that displaced nothing. *)

val cell_add : cell -> miss:bool -> read_through:bool -> evictions:int -> unit
(** Any access: a hit or a miss ([read_through]: served without caching
    the accessed line) that displaced [evictions] valid lines. *)

val global : t -> snapshot
(** The sum of every pid's counts plus the evictions no access owns
    ({!record_eviction}). *)

val for_pid : t -> int -> snapshot
(** All-zero snapshot for a pid never seen. *)

val hit_rate : snapshot -> float
(** [nan] when no accesses. *)

val reset : t -> unit
(** Zero every count. Allocates nothing unless a pid outside the small
    table has a cell. *)
