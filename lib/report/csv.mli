(** Minimal CSV export (RFC-4180-style quoting) so the regenerated
    experiment data can be post-processed outside the harness. *)

val escape_field : string -> string
(** Quote a field if it contains a comma, quote or newline. *)

val write : path:string -> header:string list -> rows:string list list -> unit
(** Writes atomically-ish (temp file then rename). Creates parent
    directories if missing. *)
