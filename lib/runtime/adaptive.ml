(* Round-based execution of a batch plan: the one campaign path.

   Every experiment campaign runs here. One with a stopping target runs
   its plan in geometric rounds and may stop at a round boundary; one
   without is the same plan as a single round ([plan ~start:total]),
   which merges the same batches in the same order. Adaptivity changes
   WHICH PREFIX of the plan runs, never what any batch computes:

   - The batch plan is [Scheduler.plan ~total:cap ~batch_size], so
     batch [i]'s seed, first index and count are byte-identical to a
     single-round run over [cap] trials.
   - Rounds are a deterministic, geometrically growing partition of
     that plan: round [r] covers batches [boundaries.(r-1) ..
     boundaries.(r) - 1], where the boundaries are computed from
     [(cap, batch_size, start, factor)] alone — never from [jobs],
     wall-clock or partial values.
   - The stop decision is taken ONLY at round boundaries, on the
     batch-order merge of every batch executed so far. Merging in batch
     index order makes the merged value jobs-invariant, hence the
     decision — and therefore the executed prefix — is too.

   So a run is bit-identical across jobs:1 / jobs:N and across
   sequential / pipelined submission; what a stopping target saves is
   the suffix of batches it never runs.

   Round 0's shards are dispatched at [submit] time, so campaigns
   submitted together share the pool queue. The rounds then drive
   themselves: [Scheduler.dispatch]'s continuation runs on the worker
   whose claimer finished the round last, merges, consults
   [keep_going], and either dispatches the next round from that worker
   or fulfils the campaign's [Pool] future. No round waits for the main
   domain to reach [await], so several campaigns submitted together all
   advance at once; [await] only blocks on the future. With
   [jobs <= 1] every continuation runs inline, so a serial submit
   computes the whole campaign eagerly. *)

open Cachesec_telemetry

type plan = {
  batches : Scheduler.batch array;
  boundaries : int array;
      (* boundaries.(r) = #batches executed once round r completed;
         strictly increasing, last element = Array.length batches. *)
}

let plan ?(start = 0) ?(factor = 2) ~total ~batch_size () =
  if factor < 2 then invalid_arg "Adaptive.plan: factor must be >= 2";
  if start < 0 then invalid_arg "Adaptive.plan: start must be non-negative";
  let batches = Scheduler.plan ~total ~batch_size in
  let nbatches = Array.length batches in
  if nbatches = 0 then { batches; boundaries = [||] }
  else begin
    (* Cumulative trial target after round r: start * factor^r (start
       defaults to one batch), rounded UP to a batch boundary so a
       round is never empty. *)
    let start = if start <= 0 then batch_size else start in
    let bound_of_target t = min nbatches ((t + batch_size - 1) / batch_size) in
    let rec grow acc target prev =
      let b = max (prev + 1) (bound_of_target target) in
      if b >= nbatches then List.rev (nbatches :: acc)
      else grow (b :: acc) (target * factor) b
    in
    { batches; boundaries = Array.of_list (grow [] start 0) }
  end

let rounds p = Array.length p.boundaries

let round_trials p r =
  if r < 0 || r >= Array.length p.boundaries then
    invalid_arg "Adaptive.round_trials: round out of range";
  let upto = p.boundaries.(r) in
  let t = ref 0 in
  for i = 0 to upto - 1 do
    t := !t + p.batches.(i).Scheduler.count
  done;
  !t

(* --- execution -------------------------------------------------------- *)

type 'p progress = {
  merged : 'p;
  trials : int;  (** trials actually executed (sum over executed batches) *)
  cap : int;  (** the fixed-count total the campaign was bounded by *)
  batches_run : int;
  rounds_run : int;
  stopped_early : bool;
}

type 'p running = 'p progress Pool.future

(* What a round boundary decides: the campaign's progress, or the merge
   so far and its trial count to carry into the next round. *)
type 'p step = Stop of 'p progress | Next of 'p * int

let submit ?jobs ?(tm = Telemetry.null) ?(span = Telemetry.null_span)
    ~what ~shard ~merge ~keep_going p =
  let total_rounds = rounds p in
  if total_rounds = 0 then
    invalid_arg ("Adaptive.submit: empty plan for " ^ what);
  let jobs = Scheduler.resolve_jobs jobs in
  if jobs > 1 then Pool.ensure ~workers:jobs;
  let cap =
    Array.fold_left (fun acc b -> acc + b.Scheduler.count) 0 p.batches
  in
  (* Round [r] covers batches [lo, hi). [acc] holds the batch-order
     merge of batches [0, lo) and [trials] their count, so folding this
     round's partials onto it in index order is the left fold of
     [merge] over the executed prefix, in batch order. *)
  let settle r lo hi acc trials parts =
    let merged =
      match
        Array.fold_left
          (fun a part ->
            match a with None -> Some part | Some a -> Some (merge a part))
          acc parts
      with
      | Some v -> v
      | None -> invalid_arg ("Adaptive: empty round for " ^ what)
    in
    let trials = ref trials in
    for i = lo to hi - 1 do
      trials := !trials + p.batches.(i).Scheduler.count
    done;
    let trials = !trials in
    let stop ~stopped_early =
      Stop
        {
          merged;
          trials;
          cap;
          batches_run = hi;
          rounds_run = r + 1;
          stopped_early;
        }
    in
    if r + 1 >= total_rounds then stop ~stopped_early:false
    else if not (keep_going ~trials merged) then stop ~stopped_early:true
    else Next (merged, trials)
  in
  let fut = Pool.promise () in
  (* Each round's continuation runs where its family finished — on the
     worker of its last claimer, or inline at [jobs <= 1] — and either
     dispatches the next round or fulfils the campaign's future. A
     failing shard, [merge] or [keep_going] fulfils it with that
     failure, and no later round is dispatched. *)
  let rec round r acc trials =
    let lo = if r = 0 then 0 else p.boundaries.(r - 1) in
    let hi = p.boundaries.(r) in
    Scheduler.dispatch ~tm ~span ~jobs (hi - lo)
      (fun i -> shard p.batches.(lo + i))
      (function
        | Error failure -> Pool.fulfil fut (Error failure)
        | Ok parts -> (
          match settle r lo hi acc trials parts with
          | exception e ->
            Pool.fulfil fut (Error (e, Printexc.get_raw_backtrace ()))
          | Stop progress -> Pool.fulfil fut (Ok progress)
          | Next (merged, trials) -> round (r + 1) (Some merged) trials))
  in
  round 0 None 0;
  fut

let await = Pool.await
