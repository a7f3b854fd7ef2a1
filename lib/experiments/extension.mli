(** The multi-line eviction refinement of Table 6's closing note, an
    extension beyond the paper's single-line attacks. *)

val multi_line_report : ?lines:int -> unit -> string
(** Type 1 PAS, single vs [lines]-line requirement, across the nine
    caches (default 4 lines — the paper's note that randomization gets
    even stronger). *)
