(** Flat struct-of-arrays cache-line state.

    One untagged [int array] slab per line field, indexed by physical
    line number; set [s] occupies the contiguous range
    [s * ways, (s + 1) * ways) in every slab (per-set stride = [ways]).
    [tags.(i) >= 0] iff line [i] is valid — memory-line numbers are
    non-negative throughout the simulator, so [-1] is a free sentinel
    and validity needs no slab of its own.

    Dirty log: {!fill} of an invalid line pushes its index onto
    [dirty.(0 .. dirty_len - 1)]. Invariant: a line absent from the log
    is in the cleared state (invalid, [owners = -1], [locked = aux =
    freq = 0]) and a set with no logged line has [tree = 0] — valid
    lines and non-zero tree words are only ever reached through such a
    fill. {!clear} therefore resets just the logged lines and their
    sets' tree words. Entries stay until the next {!clear}, so a line
    invalidated and refilled is logged again. The log holds [n / 2]
    entries; one more fill sets [dirty_len] to that capacity + 1, the
    overflow mark, and {!clear} then falls back to a full pass.

    The scan entry points use [Array.unsafe_get] internally: callers
    must pass ranges with [0 <= base] and [base + len <= n], which every
    set-derived range satisfies by construction. *)

type t = {
  n : int;  (** physical line count; every slab has length [n] *)
  ways : int;  (** per-set stride: set [s] starts at [s * ways] *)
  set_shift : int;
      (** [log2 ways]: line [i] is in set [i lsr set_shift], no division *)
  tags : int array;  (** memory-line number, or [-1] when invalid *)
  owners : int array;  (** filling pid; [-1] when invalid *)
  last_use : int array;  (** access sequence of the last touch (LRU) *)
  fill_seq : int array;  (** access sequence of the fill (FIFO) *)
  aux : int array;  (** architecture-specific (Newcache logical index) *)
  locked : int array;  (** PL protection bit, 0/1 *)
  freq : int array;
      (** access count since fill (LFU/MFU victim scans); set to 1 by
          {!fill}, incremented on hits only under a frequency-counting
          policy ({!Policy.touch}), 0 when invalid *)
  tree : int array;
      (** per-set tree-PLRU bits word, indexed by set number. Heap
          numbering inside the word: node 1 is the root, node [k] has
          children [2k] (left) and [2k+1] (right), bit [k] = 1 points at
          the right subtree; leaves are ways [0, ways). Maintained by
          {!Policy.touch}/{!Policy.filled} under [Plru] only. *)
  dirty : int array;
      (** lines filled from invalid since the last {!clear}, in fill
          order (capacity [n / 2]; see the dirty-log invariant above) *)
  mutable dirty_len : int;
      (** used prefix of [dirty]; [Array.length dirty + 1] once the log
          has overflowed *)
}

val invalid_tag : int
(** [-1]. *)

val create : lines:int -> ways:int -> t
(** All-invalid slabs. Raises [Invalid_argument] unless [ways] is a
    power of two that divides [lines] (every {!Config.t} geometry is). *)

val bytes : t -> int
(** Resident footprint of the field slabs and the dirty log in bytes
    (the [cache.slab_bytes] bench gauge). *)

val valid : t -> int -> bool

val find_tag : t -> tag:int -> base:int -> len:int -> int
(** Index of the valid line holding [tag] in [base, base + len), or -1.
    Allocation-free. *)

val find_tag_owned : t -> tag:int -> owner:int -> base:int -> len:int -> int
(** As {!find_tag}, additionally requiring the filling pid to match
    (RP's PID feature). *)

val fill : t -> int -> tag:int -> owner:int -> seq:int -> unit
(** Install a memory line: clears the lock bit and [aux], sets both
    timestamps and resets the frequency
    counter to 1 (the fill itself is the first use). Logs the line in
    the dirty log when it was invalid. *)

val touch : t -> int -> seq:int -> unit
(** LRU bookkeeping for a hit. *)

val invalidate : t -> int -> unit
(** Clear the line ([owner = -1], lock, [aux] and [freq] cleared;
    timestamps retained). *)

val victim : t -> int -> (int * int) option
(** [(owner, tag)] if the line is valid — the eviction payload when the
    line is displaced. Allocates only when valid. *)

val locked : t -> int -> bool
val set_locked : t -> int -> bool -> unit

val dump : t -> (int * Line.t) list
(** The valid lines with their index, in index order, each as a fresh
    {!Line.t} snapshot (dump/debug view; bit-compatible with the seed
    per-line records). *)

val clear : t -> int
(** Invalidate every line and zero every tree word; returns the number
    of valid lines displaced. Touches only the logged lines unless the
    dirty log overflowed, when it makes one pass per slab; the state
    and count are the same either way. Empties the log. *)

(* Raw scan loops over bare arrays, for the engine steps (all
   state passed explicitly; [Array.unsafe_get] under the range
   invariant above). *)

val scan_tag : int array -> int -> int -> int -> int
(** [scan_tag tags tag i stop]: the first index in [i, stop) holding
    [tag], or -1. *)

val scan_tag_owned : int array -> int array -> int -> int -> int -> int -> int
(** [scan_tag_owned tags owners tag owner i stop]: as {!scan_tag},
    additionally requiring [owners] to hold [owner]. *)

val scan_invalid : int array -> int -> int -> int
(** [scan_invalid tags i stop]: the first index in [i, stop) holding a
    negative (invalid) tag, or -1. *)

val scan_min : int array -> int -> int -> int
(** [scan_min a i stop]: the index of the minimum of [a] over the
    non-empty range [i, stop); first occurrence wins ties. *)

val scan_max : int array -> int -> int -> int
(** [scan_max a i stop]: as {!scan_min}, for the maximum. *)
