(** Table-based AES-128, instrumented for cache-trace extraction.

    The encryption path is the classic 32-bit T-table implementation whose
    table lookups are precisely the memory accesses the paper's four
    attacks observe. [encrypt_traced] reports every lookup as a
    [(table, index)] pair in program order: 16 lookups into te0..te3 per
    round for rounds 1-9 (round 1's indices are plaintext XOR key — the
    leak exploited by first-round attacks), then 16 final-round lookups
    into te4.

    Correctness is pinned to the FIPS-197 vectors in the test suite, and
    [decrypt] (a byte-oriented inverse cipher) provides the round-trip
    oracle for property tests. *)

type key
(** Expanded AES-128 key schedule. *)

val key_of_bytes : Bytes.t -> key
(** Expand a 16-byte key. Raises [Invalid_argument] on wrong length. *)

val key_of_hex : string -> key
(** Expand a 32-hex-digit key. *)

val key_bytes : key -> Bytes.t
(** The original 16-byte key material. *)

type access = { table : int; index : int }
(** One table lookup: [table] in 0..3 for te0..te3, 4 for the final-round
    table; [index] in 0..255. *)

val encrypt : key -> Bytes.t -> Bytes.t
(** Encrypt one 16-byte block. Raises [Invalid_argument] on wrong length. *)

val encrypt_traced : key -> Bytes.t -> Bytes.t * access array
(** Encrypt and report the 160 table lookups in program order. *)

(** {2 Allocation-free fast path}

    [encrypt_traced] allocates a fresh ciphertext, a fresh trace array
    and one [access] record per lookup — fine for analysis code, fatal
    inside a million-trial attack loop. The [_into] variant below writes
    into caller-owned buffers and encodes each lookup as a packed
    immediate int, so a steady-state call performs no GC allocation. *)

type scratch
(** Reusable cipher state (two 4-word arrays). One scratch per victim
    is enough; calls may not overlap (not re-entrant). *)

val create_scratch : unit -> scratch

val trace_length : int
(** Number of table lookups per block: 160 (9 rounds x 16 + 16 final). *)

val encrypt_traced_into :
  scratch -> key -> src:Bytes.t -> dst:Bytes.t -> trace:int array -> unit
(** Encrypt the 16-byte [src] into the 16-byte [dst], writing the 160
    lookups into [trace.(0..159)] in program order as packed
    [(table lsl 8) lor index] ints. Same cipher, same lookup order and
    same error message ("Aes.encrypt: need a 16-byte block" for a bad
    [src]) as {!encrypt_traced}; raises [Invalid_argument] if [dst] is
    not 16 bytes or [trace] has fewer than {!trace_length} slots. *)

val decrypt : key -> Bytes.t -> Bytes.t
(** Inverse cipher (byte-oriented; untraced). *)

val round10_key : key -> Bytes.t
(** The last round key (words w40..w43) as 16 bytes — what a last-round
    attack recovers directly. *)

val key_of_round10 : Bytes.t -> key
(** Invert the AES-128 key schedule: rebuild the full schedule (and the
    master key) from the last round key. Inverse of {!round10_key}:
    [key_bytes (key_of_round10 (round10_key k)) = key_bytes k]. *)

val hex_of_bytes : Bytes.t -> string
val bytes_of_hex : string -> Bytes.t
(** Raises [Invalid_argument] on odd length or non-hex characters. *)
