(** The paper's four-way classification of cache side-channel attacks
    (Table 1): miss/hit based x timing/access based. *)

type t =
  | Evict_and_time  (** Type 1: miss-based, timing-based *)
  | Prime_and_probe  (** Type 2: miss-based, access-based *)
  | Cache_collision  (** Type 3: hit-based, timing-based *)
  | Flush_and_reload  (** Type 4: hit-based, access-based *)

val all : t list
(** In type order 1..4. *)

val name : t -> string
(** "evict-and-time", "prime-and-probe", "cache-collision",
    "flush-and-reload". *)

val of_name : string -> t option
val short : t -> string
(** "Type 1" .. "Type 4". *)

val is_miss_based : t -> bool
(** Types 1 and 2: the victim's or the attacker's accesses miss. *)
