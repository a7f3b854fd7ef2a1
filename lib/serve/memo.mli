(** Memoization for the PAS query server: canonical query keys and a
    bounded answer cache.

    {2 Keys}

    {!key} maps a {!Protocol.query} to a canonical string built from
    {!Cachesec_core.Ckey} combinators over the query's {e fully
    expanded} semantic content — every spec field, the cache geometry,
    the attack, and (for simulation-backed queries) the seed and scale.
    Two query lines that ask the same question (defaults spelled out or
    omitted, [sigma=1] vs [sigma=1.0]) decode to equal {!Protocol.query}
    values and therefore share one key; two questions that differ in any
    field get distinct keys (Ckey's encoding is injective, pinned by
    test_core and swept across the validation matrix by test_serve).

    The [cold] flag is deliberately {e not} part of the key: it selects
    whether the memo is consulted at all, not which question is asked.

    {2 Table}

    A string->string table (canonical key -> encoded reply line) with
    FIFO eviction at [max_entries] — the server's working set is the
    36-cell matrix times a few parameter sweeps, so recency tracking
    would be complexity without payoff. *)

val key : Protocol.query -> string option
(** [None] for [Ping]/[Stats]/[Shutdown] (not questions, never
    memoized). *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] defaults to 65536. *)

val find : t -> string -> string option
val add : t -> string -> string -> unit
(** Adding an existing key overwrites in place (no duplicate eviction
    bookkeeping). *)

val size : t -> int
