(** PIFG vertices.

    Every vertex of a probabilistic information flow graph is a random
    variable (a memory address, a cache set index, a cache line, an observed
    time, ...). Three vertex roles are distinguished by the paper
    (Section 3.3): the victim's security-origin nodes, the attacker's
    security-origin nodes, and the attacker's observation nodes; everything
    else is internal. *)

type role =
  | Victim_origin  (** secret information the attacker wants, e.g. the
                       victim's security-critical memory address *)
  | Attacker_origin  (** the attacker's preparatory action, e.g. the memory
                         addresses he accesses to evict the victim's lines *)
  | Observation  (** what the attacker can measure, e.g. encryption time *)
  | Internal  (** intermediate random variable, e.g. a cache set index *)

type t = private { id : int; label : string; role : role }
(** Identity is the integer [id], unique within one graph. *)

val v : id:int -> label:string -> role:role -> t
(** Construct a node. [label] is for display only. *)

val equal : t -> t -> bool
