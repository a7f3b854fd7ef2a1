(** Probabilistic information flow graphs.

    A PIFG is a directed acyclic graph whose vertices are random variables
    and whose (hyper-)edges carry conditional probabilities. Graphs are
    immutable once built; {!create} validates the structural invariants the
    paper relies on:

    - acyclicity (required by Lemma 1's topological ordering);
    - security-origin nodes have no parents (Section 3.3: "By definition,
      security-origin nodes have no parent nodes");
    - at most one edge per child node per distinct parent set id-wise, so
      the conditional P(child | parents) is single-valued;
    - every edge endpoint refers to a declared node. *)

type t

type error =
  | Cycle of int list  (** node ids forming a cycle *)
  | Unknown_node of int  (** edge endpoint not declared *)
  | Origin_has_parent of int  (** a security-origin node with an incoming edge *)
  | Duplicate_node_id of int
  | Duplicate_edge_id of int
  | Duplicate_child_definition of int
      (** two edges define the conditional of the same child node *)
  | No_observation  (** the graph declares no observation node *)
  | No_victim_origin  (** the graph declares no victim security-origin node *)

val create : nodes:Node.t list -> edges:Edge.t list -> (t, error list) result
(** Validate and freeze a graph. All violated invariants are reported, not
    just the first. *)

val create_exn : nodes:Node.t list -> edges:Edge.t list -> t
(** Like {!create} but raises [Invalid_argument] with the rendered errors. *)

(** {1 Accessors} *)

val nodes : t -> Node.t list
(** In increasing id order. *)

val edges : t -> Edge.t list
(** In increasing id order. *)

val node : t -> int -> Node.t
(** Raises [Not_found] for an unknown id. *)

val node_count : t -> int
val edge_count : t -> int

val parents : t -> int -> int list
(** Parent node ids of a node (via any incoming edge), duplicate-free. *)

val children : t -> int -> int list
(** Child node ids reachable via one edge from this node, duplicate-free. *)

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
