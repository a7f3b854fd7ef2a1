(** Security-critical paths and the Probability of Attack Success.

    Theorem 1 of the paper: PAS equals the product of all edge flow
    probabilities on the security-critical paths — the union of the victim's
    security-critical path (victim origin to observation) and the attacker's
    security-critical path (attacker origin to observation). Edges shared by
    both paths are counted once, exactly as in the paper's Figure 2 example
    where PAS = p1 p4 p5 p6 p7 p9. *)

val victim_critical_edges : Graph.t -> Edge.t list
(** Edges lying on some directed path from a victim security-origin node to
    an observation node, in increasing edge-id order. *)

val attacker_critical_edges : Graph.t -> Edge.t list
(** Same, from attacker security-origin nodes. Empty when the attack has no
    attacker origin (e.g. the cache-collision attack). *)

val security_critical_edges : Graph.t -> Edge.t list
(** Union of the two, duplicate-free, in increasing edge-id order. *)

val security_critical_nodes : Graph.t -> Node.t list
(** All endpoints of the security-critical edges (includes the origin and
    observation nodes). *)

val pas : Graph.t -> float
(** The Probability of Attack Success: the product of the EFPs of
    {!security_critical_edges}. Returns 0. if the victim's origin cannot
    reach any observation node (no leakage path exists). *)
