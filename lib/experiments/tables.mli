(** Rendered reproductions of the paper's Tables 3, 5, 6 and 7. *)

val table3 : unit -> string
(** Edge probabilities and PAS of evict-and-time for the nine caches. *)

val table5 : unit -> string
(** Same for the cache-collision attack. *)

val table6 : unit -> string
(** PAS of all four attack types, with the paper's printed value beside
    each computed value. *)

val table7 : unit -> string
(** Resilience classification, computed vs paper. *)

val table6_csv_rows : unit -> string list list
(** arch, type, computed PAS, paper PAS — for CSV export. *)

val table6_alt_geometry : unit -> string
(** The same PAS computation at a 16 KB / 4-way design point — the
    model's parametric generality. *)

val policy_resilience :
  ?threshold:float ->
  ?specs:Cachesec_cache.Spec.t list ->
  ?policies:Cachesec_cache.Policy.t list ->
  unit ->
  string
(** The policy x attack x architecture refinement of Table 7
    ({!Cachesec_analysis.Resilience.policy_matrix}): one row per
    (architecture, policy), effective PAS and verdict per attack type,
    the k -> infinity cleaning limit and the worst-case absorbed
    information per observation. *)

val policy_resilience_csv_rows : unit -> string list list
(** arch, policy, attack, pas, limit, effective, bits, verdict — for
    CSV export. *)

val all : unit -> string
(** All four tables concatenated with headers. *)
