(** Monomorphized per-policy access kernels for the conventional
    set-associative cache. Bit-identical to the generic [Sa.access]
    path (state writes, RNG draws, outcomes); selected by [Sa.engine]
    with [~kernel:Auto]. The hit path allocates nothing. *)

val tick : Backing.t -> int
(** Inlined [Backing.tick] (shared by the other kernels). *)

val set_of : Backing.t -> int -> int
(** Inlined [Backing.set_of] (shared by the other kernels). *)

val access_lru : Backing.t -> pid:int -> int -> Outcome.t
val access_fifo : Backing.t -> pid:int -> int -> Outcome.t
val access_random : Backing.t -> pid:int -> int -> Outcome.t
val access_mru : Backing.t -> pid:int -> int -> Outcome.t
val access_lfu : Backing.t -> pid:int -> int -> Outcome.t
val access_mfu : Backing.t -> pid:int -> int -> Outcome.t
val access_plru : Backing.t -> pid:int -> int -> Outcome.t

(** {2 Batched trace replay}

    Per-policy [run] kernels replaying [len] packed addresses for one
    pid, bit-identical to the same accesses through the scalar kernels
    (state writes, RNG draws, counters); [Fill]/[Count] modes never
    build an [Outcome.t]. *)

val finish_hit : Counters.cell -> Counters.cell -> Kernel.mode -> int -> unit
(** Shared hit epilogue: bump both cells, then accumulate per mode
    (Trace writes [Outcome.hit] at the given index). *)

val finish_miss_fill :
  Slab.t ->
  int ->
  pid:int ->
  addr:int ->
  seq:int ->
  Counters.cell ->
  Counters.cell ->
  Kernel.mode ->
  int ->
  unit
(** Shared fill-miss epilogue at a chosen way: Trace replays the scalar
    [Slab.victim]/[Outcome.fill] tail; Fill/Count fill without
    allocating and count the displaced valid line directly. *)

val finish_miss_uncached :
  Counters.cell -> Counters.cell -> Kernel.mode -> int -> unit
(** Shared read-through epilogue (no fill): bump both cells as an
    uncached miss, then accumulate per mode (Trace writes
    [Outcome.miss_uncached]). *)

val run_lru :
  Backing.t -> pid:int -> trace:int array -> pos:int -> len:int ->
  Kernel.mode -> unit

val run_fifo :
  Backing.t -> pid:int -> trace:int array -> pos:int -> len:int ->
  Kernel.mode -> unit

val run_random :
  Backing.t -> pid:int -> trace:int array -> pos:int -> len:int ->
  Kernel.mode -> unit

val run_mru :
  Backing.t -> pid:int -> trace:int array -> pos:int -> len:int ->
  Kernel.mode -> unit

val run_lfu :
  Backing.t -> pid:int -> trace:int array -> pos:int -> len:int ->
  Kernel.mode -> unit

val run_mfu :
  Backing.t -> pid:int -> trace:int array -> pos:int -> len:int ->
  Kernel.mode -> unit

val run_plru :
  Backing.t -> pid:int -> trace:int array -> pos:int -> len:int ->
  Kernel.mode -> unit
