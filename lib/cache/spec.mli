(** Plain-data descriptors of the nine evaluated cache architectures.

    A [Spec.t] carries everything needed to instantiate an architecture
    except the scenario bindings (which pid is the victim, which memory
    lines are security-critical, the RNG); {!Factory.build} supplies
    those. The [paper_*] values reproduce the paper's Table 4. *)

type t =
  | Sa of { ways : int; policy : Policy.t }
  | Sp of { ways : int; policy : Policy.t; partitions : int }
  | Pl of { ways : int; policy : Policy.t }
  | Nomo of { ways : int; policy : Policy.t; reserved : int }
  | Newcache of { extra_bits : int }
  | Rp of { ways : int; policy : Policy.t }
  | Rf of { ways : int; policy : Policy.t; back : int; fwd : int }
      (** [back]/[fwd]: the {e victim's} random-fill window *)
  | Re of { ways : int; policy : Policy.t; interval : int }
  | Noisy of { ways : int; policy : Policy.t; sigma : float }

val paper_sa : t  (** 8-way SA, random replacement *)

val paper_sp : t  (** 8-way, 2 static partitions *)

val paper_pl : t  (** 8-way PL *)

val paper_nomo : t  (** 8-way, 1/4 ways reserved *)

val paper_newcache : t  (** 512 physical lines, 4 extra index bits *)

val paper_rp : t  (** 8-way RP *)

val paper_rf : t  (** 8-way RF, window Wa = Wb = 64 *)

val paper_re : t  (** direct-mapped, 10% random eviction *)

val paper_noisy : t  (** 8-way, noise sigma = 1 *)

val all_paper : t list
(** The nine Table 4 rows, in the paper's order. *)

val name : t -> string
(** Short stable identifier: "sa", "sp", "pl", "nomo", "newcache", "rp",
    "rf", "re", "noisy". *)

val display_name : t -> string
(** The paper's row label, e.g. "SA Cache". *)

val of_name : string -> t option
(** Inverse of {!name} over the paper configurations. *)

val with_policy : t -> Policy.t -> t
(** The same architecture under a different replacement policy. Identity
    on {!Newcache}, whose SecRAND replacement is part of the design. *)

val policy_of : t -> Policy.t option
(** The spec's replacement policy; [None] for {!Newcache}. *)
