(** Cache geometry.

    All caches in the paper's evaluation share the Table 4 geometry: 32 KB
    capacity, 64-byte lines, 512 lines, 8 ways (64 sets) — except Newcache
    (one fully-associative set) and the RE cache (direct-mapped). *)

type t = private { line_bytes : int; lines : int; ways : int }

val v : line_bytes:int -> lines:int -> ways:int -> t
(** Raises [Invalid_argument] unless [line_bytes] and [lines] are positive
    powers of two, [ways] is positive, and [ways] divides [lines]. *)

val standard : t
(** The paper's baseline: 64-byte lines, 512 lines, 8 ways. *)

val direct_mapped : t
(** 64-byte lines, 512 lines, 1 way (the paper's RE cache geometry). *)

val fully_associative : t
(** 64-byte lines, 512 lines, 512 ways (one set; Newcache's physical array). *)

val sets : t -> int
