(** The PAS query server's bounded answer cache.

    A string->string table with FIFO eviction at [max_entries] — the
    server's working set is the 36-cell matrix times a few parameter
    sweeps, so recency tracking would be complexity without payoff.
    {!Router} keeps exactly one, keyed by {!Protocol.canonical} (a
    question's canonical wire line -> encoded reply line). *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] defaults to 65536. Raises [Invalid_argument] below 1:
    a table that could hold nothing would still answer the last entry
    added. *)

val find : t -> string -> string option
val add : t -> string -> string -> unit
(** Adding an existing key overwrites in place (no duplicate eviction
    bookkeeping). *)

val size : t -> int
