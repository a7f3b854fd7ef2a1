(** Address arithmetic.

    The simulator works in units of {e memory lines} (byte address divided
    by the line size): cache side channels leak at line granularity, so
    nothing below that resolution matters. This module extracts a line's
    index field. *)

val set_index : Config.t -> int -> int
(** [set_index cfg line] is the conventional set index: [line mod sets]. *)
