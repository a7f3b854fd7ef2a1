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
  ?windows:(int * (int * int)) list ->
  rng:Cachesec_stats.Rng.t ->
  unit ->
  t
(** [default_window] is [(back, fwd)] applied to pids with no explicit
    window; defaults to [(0, 0)] (plain demand fetch). [windows] gives
    pids their own [(pid, (back, fwd))] windows from the start, as the
    engine's [set_window] would; the engine's [reset] returns to exactly these.
    Raises [Invalid_argument] on negative sizes. *)

val window : t -> pid:int -> int * int

val engine : t -> Engine.t
(** [access] and [access_run] are both derived from the one RF step
    ([run_kernel] ["rf"]). Its [set_window] raises [Invalid_argument]
    on negative sizes. *)
