(** Round-based execution of a batched campaign: the one campaign path.

    A campaign is a batch plan ([Scheduler.plan ~total:cap ~batch_size])
    partitioned into rounds whose boundaries depend only on
    [(cap, batch_size, start, factor)]. After each round the partials
    executed so far are merged in batch index order and a
    caller-supplied predicate decides whether to continue; the suffix
    of batches never run is the saving. A campaign without a stopping
    rule is the same plan as one round ([plan ~start:total ~total]).

    Because batch seeds, the round partition and the batch-order merge
    are all independent of [jobs] and of submission order, a run is
    bit-identical across [jobs:1] / [jobs:N] and across sequential /
    pipelined execution (enforced by test_runtime's adaptive matrix
    case). Stopping decisions happen at round boundaries ONLY, never
    inside a round or a batch. *)

open Cachesec_telemetry

type plan = {
  batches : Scheduler.batch array;
  boundaries : int array;
      (** [boundaries.(r)] = number of leading batches executed once
          round [r] has completed; strictly increasing, ending at
          [Array.length batches]. *)
}

val plan :
  ?start:int -> ?factor:int -> total:int -> batch_size:int -> unit -> plan
(** Partition the fixed plan for [total] trials into rounds with
    cumulative trial targets [start, start*factor, start*factor^2, ...]
    (each rounded up to a batch boundary; every round is non-empty).
    [start] must be non-negative; [0] (the default) means one batch.
    [factor] defaults to 2 and must be [>= 2]. A [total] of 0 yields an
    empty plan. *)

(** {1 Execution} *)

type 'p progress = {
  merged : 'p;  (** batch-order merge of every executed batch *)
  trials : int;  (** trials actually executed *)
  cap : int;  (** the fixed-count bound ([trials = cap] without early stop) *)
  batches_run : int;
  rounds_run : int;
  stopped_early : bool;
}

type 'p running
(** An adaptive campaign whose rounds are running on the pool: a
    {!Pool} future its last round fulfils. *)

val submit :
  ?jobs:int ->
  ?tm:Telemetry.t ->
  ?span:Telemetry.span ->
  what:string ->
  shard:(Scheduler.batch -> 'p) ->
  merge:('p -> 'p -> 'p) ->
  keep_going:(trials:int -> 'p -> bool) ->
  plan ->
  'p running
(** Dispatch round 0's shards onto the pool and return without
    blocking. Each round's continuation runs on the worker that finished
    the round: it merges the partials in batch order, consults
    [keep_going], and either dispatches the next round or completes the
    campaign — so campaigns submitted before the first {!await} advance
    round by round together, without the main domain. With [jobs <= 1]
    the continuations run inline and the whole campaign is computed
    before [submit] returns. [keep_going] is consulted at each round
    boundary with the cumulative trial count and the merged partials;
    it must be pure (typically [Sequential.decide] against a target)
    and, like [shard] and [merge], may run on any worker. [what] names
    the campaign in error messages. Raises [Invalid_argument] on an
    empty plan. *)

val await : 'p running -> 'p progress
(** Block until the campaign's last round completed and return its
    progress, or re-raise the first failure of a shard, [merge] or
    [keep_going] with its backtrace. Must be called from outside the
    pool. *)
