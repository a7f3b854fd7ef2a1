(** Address arithmetic.

    The simulator works in units of {e memory lines} (byte address divided
    by the line size): cache side channels leak at line granularity, so
    nothing below that resolution matters. This module extracts a line's
    index and tag fields. *)

val set_index : Config.t -> int -> int
(** [set_index cfg line] is the conventional set index: [line mod sets]. *)

val tag : Config.t -> int -> int
(** [tag cfg line] is the conventional tag: [line / sets]. *)
