(** Memory placement of the victim's AES tables.

    The five 1 KB tables (te0..te3 and the final-round table) sit
    contiguously from [base_line]: with 64-byte lines each table covers 16
    lines and an entry lookup [(table, index)] touches line
    [base_line + 16*table + index/16]. This is the address knowledge both
    the attacker (to aim evictions) and the analysis share. *)

open Cachesec_cache

type t

val create : ?base_line:int -> Config.t -> t
(** [base_line] defaults to 0 (line-aligned by construction). Raises
    [Invalid_argument] if [base_line] is negative or a line is larger
    than a table or narrower than one table entry. *)

val base_line : t -> int

val entries_per_line : t -> int
(** Table entries sharing one cache line (16 for 64-byte lines). *)

val lines_per_table : t -> int

val line_of_entry : t -> table:int -> index:int -> int

val line_of_packed : t -> int -> int
(** The line touched by one packed lookup ([(table lsl 8) lor index],
    as produced by [Aes.encrypt_traced_into]). Shifts, masks and one
    multiply on precomputed geometry — entries per line is a power of
    two, so no division, no bounds checks, no allocation; only feed it
    packed accesses from the cipher. *)

val table_lines : t -> table:int -> int list
(** All lines of one table, ascending. *)

val all_lines : t -> int list
(** All table lines, ascending (80 lines in the standard layout). *)

val line_count : t -> int
(** [List.length (all_lines t)] without building the list; the lines are
    contiguous from {!base_line}, so allocation-free consumers can loop
    [base_line t .. base_line t + line_count t - 1]. *)

val line_ranges : t -> (int * int) list
(** Inclusive ranges for {!Factory.scenario}'s [victim_lines]. *)

val set_of_entry : t -> table:int -> index:int -> int
(** Cache set of an entry under conventional indexing. *)
