(** The step protocol and batched trace replay.

    Every architecture writes its access transition once, as a step that
    mutates the engine state for one access and returns a {e step code}.
    [Engine.access] is the step followed by {!record}; [Engine.access_run]
    is the step in a loop followed by {!finish}. Both therefore run the
    same state writes and RNG draws in the same order; they differ only
    in what they build from the code. *)

open Cachesec_stats

val generic : string
(** ["generic"] — the [Engine.t.run_kernel] label of a wrapper whose run
    loops its scalar access ({!run_of_scalar}). *)

(** {2 Step codes}

    An int: bit 0 = miss; bit 1 = the access filled a line (the
    [Backing.t] scratch holds the line and what it displaced); bit 2 =
    the accessed line is not cached afterwards; bits 3 and up = valid
    lines displaced (0 to 2). Steps build codes only from the values
    and functions below. *)

val hit : int
(** A hit that displaced nothing. *)

val read_through : int
(** A miss served from memory: nothing filled, nothing displaced (PL
    locked victim, SP cross-partition miss, RF window line already
    cached). *)

val not_cached : int -> int
(** Mark a fill as one of another line than the one accessed (RF). *)

val fill : Backing.t -> int -> tag:int -> owner:int -> seq:int -> int
(** [fill b way ~tag ~owner ~seq] installs [tag] at [way] ([Slab.fill]),
    records the fill and the line it displaced in the scratch, and
    returns the code of a miss served by that fill. *)

val also_evict : Backing.t -> int -> int
(** Invalidate line [i] as the access's second displacement (Newcache's
    CAM conflict, RE's periodic eviction): when [i] is valid, records it
    in the scratch, invalidates it and returns the code increment of one
    eviction; otherwise returns 0. Add the result to the access's code. *)

val record : Backing.t -> pid:int -> int -> Outcome.t
(** The outcome a code (and the scratch it names) describes, recorded
    with [Counters.record] — the epilogue of [access]. [hit] and
    [read_through] return the preallocated {!Outcome.hit} and
    {!Outcome.miss_uncached}. *)

(** {2 Batched trace replay}

    An engine's [access_run] replays [len] packed addresses
    [trace.(pos) .. trace.(pos + len - 1)] for one pid by looping its
    step with the counter cells hoisted, accumulating per [mode].
    State, RNG draw order and counters equal [len] calls of [access]. *)

(** Caller-owned accumulation state for a [Count] run: the classified
    misses of each run fold into [misses.(bin)]. The counter (and the
    [Count] value wrapping it) is preallocated once per plan/victim;
    [bin], [sigma] and [noise] are re-pointed between runs so the trial
    loops allocate nothing at [sigma = 0.]. At [sigma = 0.] no RNG is
    consumed and a classified miss is a true miss; at [sigma > 0.] one
    gaussian is drawn from [noise] per access in access order — the same
    stream the scalar [Timing.observe_outcome] loop consumes. *)
type counter = {
  misses : int array;  (** classified misses, one slot per bin *)
  mutable bin : int;  (** scratch index the counts fold into *)
  mutable sigma : float;  (** observation noise; 0. = RNG-neutral *)
  mutable noise : Rng.t;  (** observation stream (only read at sigma > 0) *)
}

type mode =
  | Fill  (** outcomes discarded (prime/evict/warm phases) *)
  | Count of counter  (** fold miss counts; no [Outcome.t] is ever built *)

val make_counter : bins:int -> counter
(** Fresh counter with a [bins]-slot scratch array, [bin = 0],
    [sigma = 0.] and a placeholder noise stream. *)

val finish : Counters.cell -> mode -> int -> unit
(** [finish cell mode code]: the run loop's per-access epilogue — bump
    the pid's cell as [Counters.record] would, then accumulate per
    [mode]. *)

val run_of_scalar :
  (pid:int -> int -> Outcome.t) ->
  pid:int ->
  trace:int array ->
  pos:int ->
  len:int ->
  mode ->
  unit
(** Loop a scalar access closure over the run: the [access_run] of
    Hierarchy, the one wrapper with no step of its own. *)
