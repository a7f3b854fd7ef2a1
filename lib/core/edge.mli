(** PIFG edges.

    An edge connects one or more parent vertices to exactly one child vertex
    (the paper: "one edge can have multiple parents but only one child") and
    carries an Edge Flow Probability — the conditional probability of the
    child given its parents. An example of a multi-parent edge is e4 of the
    evict-and-time model: whether the victim's access hits depends on both
    the evicted memory line and the victim's accessed line. *)

type t = private {
  id : int;
  label : string;
  parents : int list;  (** node ids, non-empty, duplicate-free *)
  child : int;  (** node id *)
  prob : float;  (** edge flow probability, in [0, 1] *)
}

val v : id:int -> ?label:string -> parents:int list -> child:int -> float -> t
(** [v ~id ?label ~parents ~child prob] constructs an edge. Raises
    [Invalid_argument] if [parents] is empty or contains duplicates, if
    [child] appears among [parents] (self-loop), or if [prob] is outside
    [0, 1] or not finite. *)

val compare : t -> t -> int
