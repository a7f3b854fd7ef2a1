(** Covert-channel capacity between two colluding processes, per
    architecture — the flip side of the side-channel taxonomy (the
    paper's reference [33] studies exactly this in virtualized L2s).

    Two protocols, because they have very different defences:

    - {e set-conflict}: the receiver primes one cache set, the sender
      evicts it (bit 1) or idles (bit 0), the receiver probes. This is
      the covert twin of prime-and-probe; per-process randomized
      mappings (Newcache, RP) destroy it.
    - {e occupancy}: the receiver primes a large fraction of the whole
      cache and the sender modulates total occupancy. Randomized
      mappings do {e not} help — aggregate occupancy is preserved — so
      every shared cache carries this channel; only strict partitioning
      of the {e colluders} would close it (and SP/PL/Nomo partition the
      victim, not them).

    Symbols are thresholded with a calibration preamble; capacity is the
    empirical I(sent; received) per symbol under uniform input. *)

type protocol = Set_conflict | Occupancy

type row = {
  arch : string;
  protocol : protocol;
  error_rate : float;
  capacity : float;  (** bits per symbol *)
}

val table : ?seed:int -> ?bits:int -> unit -> row list
(** Both protocols for the nine caches. [bits] defaults to 2000 symbols
    (plus a 200-symbol preamble) and must be positive. *)

val render : row list -> string
