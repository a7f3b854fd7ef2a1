(** Uniform, architecture-agnostic cache interface.

    This record is the one API for a cache's operations: each
    architecture module builds its cache with [create] and hands it out
    through [engine], and the attack harness, workloads, benches,
    examples and tests all drive it through these fields. Beyond that an
    architecture module exports only its own queries ([Rp.table],
    [Rf.window], [Pl.locked_lines], [Hierarchy.access_timed], ...).
    Operations that an architecture does not implement (locking outside
    PL, windows outside RF) are no-ops that return [()] or [false]. *)

type t = {
  name : string;
  config : Config.t;
  sigma : float;
      (** standard deviation of Gaussian observation noise this cache adds
          to timing measurements (non-zero only for the noisy cache) *)
  slab : Slab.t;
      (** the engine's line state of record (a wrapper reports its inner
          engine's; Hierarchy its L2's), for footprint gauges
          ([Slab.bytes]) and white-box tests. Mutating it bypasses the
          engine's counters. *)
  access : pid:int -> int -> Outcome.t;
      (** one read of a memory line (line-number addressing) *)
  access_run :
    pid:int -> trace:int array -> pos:int -> len:int -> Kernel.mode -> unit;
      (** batched replay of [trace.(pos) .. trace.(pos + len - 1)] for one
          pid, accumulating per {!Kernel.mode}. Bit-identical to [len]
          calls of [access] in state, RNG draws and counters; [Fill] and
          [Count] modes never build an [Outcome.t]. *)
  run_kernel : string;
      (** which path serves [access] and [access_run]: the engine's step
          (["sa-lru"], ["rp-random"], ["newcache"], ["sp"], ...) or
          {!Kernel.generic} for a wrapper that loops its scalar access.
          Reported as the [cache.kernel] telemetry gauge and in bench
          rows. *)
  peek : pid:int -> int -> bool;
      (** non-mutating: would [access] hit right now? *)
  flush_line : pid:int -> int -> bool;
      (** clflush analogue: remove the line wherever the pid could hit on
          it; returns whether anything was removed *)
  flush_all : unit -> unit;  (** invalidate the whole cache *)
  lock_line : pid:int -> int -> bool;
      (** PL cache: prefetch and protect a line; [false] if unsupported or
          the line could not be locked *)
  unlock_line : pid:int -> int -> bool;
  set_window : pid:int -> back:int -> fwd:int -> unit;
      (** RF cache: set the pid's random-fill window; no-op elsewhere *)
  counters : Counters.t;
      (** the engine's global and per-pid counts, read with
          {!Counters.global} and {!Counters.for_pid} and zeroed with
          {!Counters.reset} (a Hierarchy's are its own, not its
          levels') *)
  reset : rng:Cachesec_stats.Rng.t -> unit;
      (** Return to the state the engine was built in, drawing from [rng]
          from now on: afterwards every operation behaves, outcome for
          outcome and draw for draw, as on the engine {!Factory.build}
          (or the architecture's [create]) returns from [rng]. That is
          possible because construction draws nothing from its RNG.
          Restored: the lines and PLRU tree words (through the slab's
          dirty log), the access sequence behind [last_use]/[fill_seq],
          the global and per-pid counters, the step scratch, and the
          architecture's own state (RP's permutation tables, RF's
          windows as built, RE's eviction countdown, Newcache's index).
          Invalid lines keep stale timestamps, which nothing reads.
          Cost is proportional to the lines filled since the last clear
          (a full pass once the dirty log has overflowed), plus, for RP,
          one rewrite of every pid table it has ever made (sets words per
          pid, touched in the sample or not); the nine {!Factory} engines
          allocate nothing. A wrapper engine (Hierarchy) resets to the
          construction its own interface names, which is not
          necessarily the one a given caller used. *)
}

val dump : t -> (int * Line.t) list
(** [Slab.dump t.slab]: the valid lines with their physical way index,
    for tests and debugging. *)

val of_backing :
  Backing.t ->
  name:string ->
  run_kernel:string ->
  access:(pid:int -> int -> Outcome.t) ->
  access_run:
    (pid:int -> trace:int array -> pos:int -> len:int -> Kernel.mode -> unit) ->
  find:(pid:int -> int -> int) ->
  t
(** The record of an engine over a {!Backing.t}, before its own
    overrides ([{ (of_backing ...) with ... }]): the backing's config,
    slab and counters, [sigma] 0, [peek] true where [find] finds a line
    (its slab index, or -1), [flush_line] {!Backing.flush} of what
    [find] finds, {!Backing.flush_all}, {!Backing.reset}, and the
    lock and window no-ops. *)
