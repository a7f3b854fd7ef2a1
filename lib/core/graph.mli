(** Probabilistic information flow graphs.

    A PIFG is a directed acyclic graph whose vertices are random variables
    and whose (hyper-)edges carry conditional probabilities. Graphs are
    immutable once built; {!create_exn} validates the structural invariants the
    paper relies on:

    - acyclicity (required by Lemma 1's topological ordering);
    - security-origin nodes have no parents (Section 3.3: "By definition,
      security-origin nodes have no parent nodes");
    - at most one edge per child node per distinct parent set id-wise, so
      the conditional P(child | parents) is single-valued;
    - every edge endpoint refers to a declared node. *)

type t

val create_exn : nodes:Node.t list -> edges:Edge.t list -> t
(** Validate and freeze a graph. Raises [Invalid_argument] rendering
    every violated invariant, not just the first. *)

(** {1 Accessors} *)

val nodes : t -> Node.t list
(** In increasing id order. *)

val edges : t -> Edge.t list
(** In increasing id order. *)

val node : t -> int -> Node.t
(** Raises [Not_found] for an unknown id. *)

val node_count : t -> int
val edge_count : t -> int

val victim_origins : t -> Node.t list
val attacker_origins : t -> Node.t list
val observations : t -> Node.t list

(** {1 Structure} *)

val topological_order : t -> Node.t list
(** Parents before children; deterministic (sorted by id within a layer). *)

val reachable_from : t -> int list -> (int, unit) Hashtbl.t
(** Forward closure: the given nodes and everything reachable from them. *)

val co_reachable : t -> int list -> (int, unit) Hashtbl.t
(** Backward closure: the given nodes and everything that reaches them. *)

val tainted_nodes : t -> Node.t list
(** Nodes to which secret information from a victim security-origin node can
    propagate (the nodes the paper marks with an asterisk), including the
    origins themselves. *)
