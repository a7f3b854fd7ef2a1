(** Design-space exploration: how PAS and pre-PAS respond to the
    architectural knobs — the "compare designs without simulation or
    taping out a chip" use case of the paper's abstract. All values are
    analytical (instant), computed through the PIFG machinery with
    non-default geometries. *)

val associativity_sweep : ways:int list -> (int * float * float) list
(** For an SA cache with [w] ways (same 512-line budget):
    (w, Type 1 PAS = 1/w, pre-PAS at k = 2w under random replacement).
    More ways = lower per-eviction success but an easier-to-fill set —
    the tension Figure 8 shows. *)

val cache_size_sweep : lines:int list -> (int * float) list
(** Newcache-style full randomization: Type 1 PAS = 1/lines. *)

val rf_window_sweep : windows:int list -> (int * float * float) list
(** (w, Type 3 PAS = 1/(2w+1), Type 2 PAS) for an RF cache with window
    half-size w. *)

val nomo_reservation_sweep :
  ways:int -> reserved:int list -> (int * float * float) list
(** (r, Type 1 PAS = 1/(w - r) given spill, shared-way pre-PAS at
    k = 24). *)

val render : unit -> string
(** All sweeps as tables. *)

val csv_rows : unit -> (string * string list * string list list) list
(** (name, header, rows) per sweep, for the results/ export. *)
