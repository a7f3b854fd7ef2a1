(** Incremental PIFG construction.

    A thin mutable layer over {!Graph.create_exn} that allocates node and edge
    ids and lets attack models be written linearly:

    {[
      let b = Builder.create () in
      let m_a = Builder.node b ~label:"attacker addr" ~role:Attacker_origin in
      let set = Builder.node b ~label:"set index" ~role:Internal in
      let _e1 = Builder.edge b ~label:"p1" ~parents:[ m_a ] ~child:set ~prob:1.0 in
      ...
      Builder.finish_exn b
    ]} *)

type t

val create : unit -> t

val node : t -> label:string -> role:Node.role -> int
(** Declare a node; returns its id. *)

val edge : t -> ?label:string -> parents:int list -> child:int -> float -> int
(** [edge b ?label ~parents ~child prob] declares an edge and returns its
    id. Raises like {!Edge.v} on malformed input (empty parents,
    probability outside [0,1], ...). *)

val finish_exn : t -> Graph.t
(** Validate and freeze; raises [Invalid_argument] on an invalid graph.
    The builder may keep being extended afterwards; each call snapshots
    the current contents. *)
