(** Access-kernel selection and batched trace replay.

    Engines with monomorphized access loops ({!Kernel_sa}, {!Kernel_pl},
    {!Kernel_rp}, {!Kernel_newcache}) take a [selection] at
    engine-build time: [Auto] binds the per-(architecture, policy)
    scalar kernel AND its batched [run] twin once, [Generic] keeps the
    policy-dispatching path — the differential-testing oracle — and
    [Scalar] binds the monomorphized scalar kernel but leaves the
    batched entry point on the scalar-looping fallback (the exact
    pre-batching cost model, recorded as the bench "scalar" rows). All
    paths must stay bit-identical in state, RNG draw order and
    outcomes; the selection is observable only as throughput and as the
    [Engine.t.kernel] / [Engine.t.run_kernel] labels. *)

open Cachesec_stats

type selection = Auto | Generic | Scalar

val generic : string
(** ["generic"] — the label of the policy-dispatching fallback path. *)

val scalar : string
(** ["scalar"] — the [Engine.t.run_kernel] label of the [Scalar]
    selection: monomorphized scalar access looped by the generic run
    wrapper. *)

(** {2 Kernel registry}

    One table per engine, keyed by {!Policy.id}. [table ~prefix entries]
    labels each kernel [prefix ^ "-" ^ Policy.to_string p] (the
    [Engine.t.kernel] string); {!pick} returns the kernel for a policy,
    or [None] when the engine has no monomorphized loop for it — the
    caller then uses the generic path. *)

val table : prefix:string -> (Policy.t * 'k) list -> (string * 'k) option array
val pick : (string * 'k) option array -> Policy.t -> (string * 'k) option

(** {2 Batched trace replay}

    A batched [run] kernel replays [len] packed addresses
    [trace.(pos) .. trace.(pos + len - 1)] for one pid in a straight-line
    loop with the engine fields hoisted into locals, accumulating per
    [mode]. State writes, RNG draw order and counters are bit-identical
    to [len] scalar accesses (differential-fuzzed and pinned by the
    golden digests). *)

(** Caller-owned accumulation state for a [Count] run. The counter (and
    the [Count] value wrapping it) is preallocated once per plan/victim;
    [bin], [sigma] and [noise] are re-pointed between runs so the trial
    loops allocate nothing. At [sigma = 0.] no RNG is consumed,
    classified = true misses and the time sum is exact; at [sigma > 0.]
    one gaussian is drawn from [noise] per access in access order — the
    same stream the scalar [Timing.observe_outcome] loop consumes. *)
type counter = {
  true_misses : int array;
  classified : int array;
  times : float array;
  mutable bin : int;  (** scratch index the counts fold into *)
  mutable sigma : float;  (** observation noise; 0. = RNG-neutral *)
  mutable noise : Rng.t;  (** observation stream (only read at sigma > 0) *)
}

type mode =
  | Fill  (** outcomes discarded (prime/evict/warm phases) *)
  | Count of counter  (** fold miss counts; no [Outcome.t] is ever built *)
  | Trace of Outcome.t array
      (** full outcome writeback at indices [0 .. len-1] (compatibility) *)

val make_counter : bins:int -> counter
(** Fresh counter with [bins]-slot scratch arrays, [bin = 0],
    [sigma = 0.] and a placeholder noise stream. *)

val count_hit : counter -> unit
val count_miss : counter -> unit
(** Per-access Count accumulation — one definition shared by the batched
    kernels and {!run_of_scalar} so both paths classify identically. *)

val run_of_scalar :
  (pid:int -> int -> Outcome.t) ->
  pid:int ->
  trace:int array ->
  pos:int ->
  len:int ->
  mode ->
  unit
(** Loop the scalar access closure over the run: the generic
    [Engine.t.access_run] fallback, the [Scalar] selection's
    pre-batching cost model, and the differential oracle the batched
    kernels are fuzzed against. *)

val arch_run :
  selection ->
  name:string ->
  access:(pid:int -> int -> Outcome.t) ->
  (pid:int -> trace:int array -> pos:int -> len:int -> mode -> unit) ->
  (pid:int -> trace:int array -> pos:int -> len:int -> mode -> unit) * string
(** [arch_run kernel ~name ~access run] binds the [access_run] of an
    engine whose batched loop dispatches its policy per access (SP,
    Nomo, RF, RE) and returns it with its [run_kernel] label. Under
    [Auto], Fill and Count runs go to [run] (labelled [name]) and Trace
    runs loop [access]; [Generic] and [Scalar] loop [access] in every
    mode (labelled {!generic}), the oracle [run] is fuzzed against. *)
