(** Plain-text table rendering for the paper-style tables. *)

type align = Left | Right

val render :
  ?aligns:align list -> headers:string list -> rows:string list list -> unit -> string
(** Box-drawn table. Rows shorter than the header are padded with empty
    cells; longer rows raise [Invalid_argument]. [aligns] defaults to
    left for the first column and right for the rest. *)

val fmt_prob : float -> string
(** Paper-style probability formatting: "0" and "1.0" exact, three
    significant digits otherwise, scientific notation below 0.01
    ("1.95e-3"). *)
