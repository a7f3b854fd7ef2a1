(** The result of one memory access as seen by the timing channel.

    The encoding is sized for the hot path: a fill displaces at most one
    line, and at most one architecture-specific side eviction can ride
    along (Newcache's CAM index conflict, RE's periodic random
    eviction), so the payload is two inline options rather than a list.
    Plain hits return the preallocated {!hit} value, and PL/SP
    read-throughs the preallocated {!miss_uncached} value, so those
    paths allocate nothing. *)

type event = Hit | Miss

type t = {
  event : event;
  cached : bool;
      (** whether the {e accessed} line resides in the cache afterwards
          (false for PL read-through and for RF, whose fill may be a
          different line) *)
  fetched : int option;
      (** the memory line actually brought into the cache by this access,
          if any; differs from the accessed line under random fill *)
  evicted : (int * int) option;
      (** [(owner_pid, line)] displaced by this access's fill (or, on an
          RE access with no fill eviction, its periodic eviction) *)
  also_evicted : (int * int) option;
      (** second displaced line, when one access evicts twice: Newcache's
          invalidated CAM-conflict line, RE's periodic random eviction *)
}

val hit : t
(** A plain hit: cached, nothing fetched or evicted. Preallocated. *)

val miss_uncached : t
(** A miss served straight from memory: nothing fetched or evicted
    (SP cross-partition, PL locked-victim read-through). Preallocated. *)

val is_hit : t -> bool
val is_miss : t -> bool
