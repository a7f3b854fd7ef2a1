(** Random Fill (RF) cache (Liu & Lee 2014).

    Only the fetch policy changes: a miss sends the accessed line straight
    to the processor without caching it, and instead fetches a uniformly
    random line from the accessor's neighbourhood window
    [addr - back, addr + fwd] into the cache through normal replacement.
    The cached content therefore no longer reveals which line was demanded
    — the defence against cache-collision (and reuse-based) attacks. The
    window is per process; a window of (0, 0) degrades to demand fetch,
    which is how an attacker sidesteps the defence for his own accesses
    (paper Section 5E). *)

type t

val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  ?default_window:int * int ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** [default_window] is [(back, fwd)] applied to pids with no explicit
    window; defaults to [(0, 0)] (plain demand fetch). *)

val config : t -> Config.t
val window : t -> pid:int -> int * int
val set_window : t -> pid:int -> back:int -> fwd:int -> unit
(** Raises [Invalid_argument] on negative sizes. *)

val access : t -> pid:int -> int -> Outcome.t
val peek : t -> pid:int -> int -> bool
val flush_line : t -> pid:int -> int -> bool
val flush_all : t -> unit
val engine : ?kernel:Kernel.selection -> t -> Engine.t
(** [?kernel] (default [Auto]) binds the batched Fill/Count run loop;
    [Generic] and [Scalar] loop the scalar access instead (see
    {!Kernel.arch_run}). *)
