(** Replacement-policy registry.

    The single authority on which replacement policies exist, how they
    are spelled, which {!Slab} field arrays they read and write, and how
    they pick victims and react to touches. Engines, {!Factory},
    {!Spec}, the CLI and the serve protocol all dispatch through this
    module.

    Adding a policy: extend {!t}, {!all}, {!id}, the spellings, {!needs}
    and the three dispatch functions here; the inlined copies of the
    hooks in [Sa] and [Rp] (which specialise their steps per policy);
    the reference model under test/reference/; and, optionally, a
    pre-PAS formula in [Prepas]. Everything downstream — factory cells,
    the reference fuzz, golden traces, `--policy` parsing, serve
    spellings, bench rows — picks it up from {!all}.

    Victim-selection semantics (invalid candidates always win first, a
    fill never evicts while free space remains; all scans break ties by
    first occurrence):
    - [Lru]: least [last_use].
    - [Random]: uniform over the range, one RNG draw.
    - [Fifo]: least [fill_seq].
    - [Mru]: greatest [last_use].
    - [Lfu]: least [freq] (access count since fill).
    - [Mfu]: greatest [freq].
    - [Plru]: tree-PLRU — walk the set's tree-bits word root to leaf.
      The tree covers exactly one set-aligned power-of-two-way set; for
      any other candidate shape (Nomo's reserved/shared slices, PL's
      unlocked-way lists, non-power-of-two way counts) the choice
      deterministically falls back to LRU order and the touch hook is a
      no-op, so such engines behave exactly like LRU. *)

type t = Lru | Random | Fifo | Mru | Lfu | Mfu | Plru

val all : t list
(** Every policy, in {!id} order. *)

val count : int
(** [List.length all]; the size of an {!id}-indexed table. *)

val id : t -> int
(** Dense index in [0, count). *)

val to_string : t -> string
val of_string : string -> t option

val names : string
(** ["lru|random|fifo|mru|lfu|mfu|plru"] — for CLI / protocol error
    messages. *)

(** {2 State needs}

    Which slab state a policy reads or writes — the contract behind the
    zero-alloc discipline: every policy's victim scan is a contiguous
    bounded int-loop over the listed arrays, and its touch hook is a
    constant number of int stores into them. *)

type needs = {
  last_use : bool;  (** reads [Slab.last_use] (LRU/MRU scans) *)
  fill_seq : bool;  (** reads [Slab.fill_seq] (FIFO scan) *)
  freq : bool;  (** reads+writes [Slab.freq] (LFU/MFU counter) *)
  tree : bool;  (** reads+writes [Slab.tree] (PLRU bits word) *)
  rng : bool;  (** draws from the engine RNG on victim selection *)
}

val needs : t -> needs

(** {2 Victim selection} *)

val victim_in : t -> Cachesec_stats.Rng.t -> Slab.t -> base:int -> len:int -> int
(** [victim_in p rng s ~base ~len] picks the victim index from the
    contiguous range [base, base + len): any invalid candidate first
    (lowest index), otherwise by policy as documented above.
    Allocation-free. Raises [Invalid_argument] when the range is empty
    or out of bounds. *)

val victim_among_in :
  t -> Cachesec_stats.Rng.t -> Slab.t -> candidates:int list -> int
(** As {!victim_in} over an explicit (possibly non-contiguous) candidate
    list — cold paths only (PL way-locking). Invalid-first order is list
    order; [Random] is [List.nth] over the list; [Plru] falls back to
    LRU order (the tree only orders whole sets). *)

(** {2 Per-access state hooks}

    Every engine step threads these at the same two points: every hit
    calls {!touch}, every fill is followed by {!filled}. *)

val touch : t -> Slab.t -> int -> seq:int -> unit
(** Hit bookkeeping on line [i]: always updates [last_use] (the
    [Slab.touch] every engine did before), plus the policy's own state —
    [Lfu]/[Mfu] increment [freq], [Plru] re-points the set's tree away
    from the touched way. Allocation-free. *)

val filled : t -> Slab.t -> int -> unit
(** Post-fill bookkeeping on line [i]. [Slab.fill] already reset [freq]
    to 1; the only policy with extra fill state is [Plru], which points
    the tree away from the filled way (a fill counts as a use).
    Allocation-free. *)

(** {2 Tree-PLRU internals}

    Exposed for the inlined hooks of [Sa] and [Rp] and the unit
    tests. *)

val plru_tree_capable : int -> bool
(** Whether a way count is covered by the tree (power of two, > 1). *)

val plru_walk : int -> int -> int -> int
(** [plru_walk tree ways node]: follow the bits from heap [node] (the
    root is 1) down to a leaf; returns the way index. *)

val plru_touch : Slab.t -> int -> unit
(** Point every ancestor of line [i]'s leaf away from it. No-op when
    the slab's way count is not tree-capable. *)
