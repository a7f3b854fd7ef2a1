(** Uniform, architecture-agnostic cache interface.

    Each architecture module exposes its own typed API plus an [engine]
    projection to this record of operations, which is what the attack
    harness, benches and examples drive. Operations that an architecture
    does not implement (locking outside PL, windows outside RF) are no-ops
    that return [()] or [false]. *)

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
  counters : unit -> Counters.snapshot;
  counters_for : int -> Counters.snapshot;
  reset_counters : unit -> unit;
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
  dump : unit -> (int * Line.t) list;
      (** valid lines with their physical way index, for tests/debugging *)
}

val no_lock : pid:int -> int -> bool
(** Constant [false]; default for caches without locking. *)

val no_window : pid:int -> back:int -> fwd:int -> unit
(** No-op; default for caches without random fill. *)
