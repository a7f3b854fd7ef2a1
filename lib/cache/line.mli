(** Snapshot of one cache line's metadata: what {!Slab.dump} and
    {!Engine.dump} report. The engines keep their line state in a
    {!Slab}; a snapshot is a copy, not a handle on it. *)

type t = {
  valid : bool;
  tag : int;  (** full memory-line number of the cached line *)
  owner : int;  (** pid that filled the line *)
  locked : bool;  (** PL cache protection bit *)
  last_use : int;  (** global access sequence of the last touch (LRU) *)
  fill_seq : int;  (** global access sequence of the fill (FIFO) *)
  aux : int;  (** architecture-specific field (Newcache logical index) *)
}
