open Cachesec_cache
open Cachesec_crypto

type config = { trials : int; target_byte : int; lock_victim_tables : bool }

let default_config = { trials = 2000; target_byte = 0; lock_victim_tables = false }

type result = {
  set_miss_rate : float array;
  scores : float array;
  best_candidate : int;
  true_byte : int;
  nibble_recovered : bool;
  separation : float;
}

let validate c =
  if c.trials <= 0 then invalid_arg "Prime_probe.run: trials must be positive";
  if c.target_byte < 0 || c.target_byte > 15 then
    invalid_arg "Prime_probe.run: target_byte must be in 0..15"

(* --- partial (mergeable) trial accumulators -------------------------- *)

type partial = {
  miss_freq : float array;
  cand_hits : float array;
  mutable span : int;
}
(* miss_freq.(s) = #trials in the span where probing set s saw >= 1
   classified miss; cand_hits.(k) accumulates the miss indicator of the
   set candidate k predicts; [span] is the trial count folded in. *)

(* In-place fold for the campaign merge (each round's batch-order fold
   consumes each partial exactly once into a running accumulator, so
   mutating the left argument is safe and saves the per-merge array
   pair). *)
let merge_into a b =
  if Array.length a.miss_freq <> Array.length b.miss_freq then
    invalid_arg "Prime_probe.merge_into: set-count mismatch";
  for s = 0 to Array.length a.miss_freq - 1 do
    a.miss_freq.(s) <- a.miss_freq.(s) +. b.miss_freq.(s)
  done;
  for k = 0 to 255 do
    a.cand_hits.(k) <- a.cand_hits.(k) +. b.cand_hits.(k)
  done;
  a.span <- a.span + b.span

(* Adaptive-runtime estimator: the best candidate's hit rate, a
   proportion over the span. Computed from the merged partial's existing
   accumulators — the zero-allocation trial loop is never touched. *)
let observe p =
  Cachesec_stats.Sequential.Proportion
    {
      successes = Array.fold_left Float.max 0. p.cand_hits;
      trials = p.span;
    }

let run_span ~victim ~attacker_pid ~rng ~count c =
  validate { c with trials = count };
  let layout = Victim.layout victim in
  let engine = Victim.engine victim in
  let sets = Config.sets engine.Engine.config in
  let table = c.target_byte mod 4 in
  if c.lock_victim_tables then ignore (Victim.lock_tables victim);
  let miss_freq = Array.make sets 0. in
  let cand_hits = Array.make 256 0. in
  (* Everything a trial touches is precompiled or reused: the probe plan
     holds the conflict lines and per-set scratch, [p] is the plaintext
     buffer, and candidate k's predicted set is a pure table lookup. At
     sigma 0 the trial loop itself allocates nothing (test_hotpath's
     attack-trial guards); at sigma > 0 each probe's gaussian draw
     boxes floats, 2,048 minor words per trial of 512 probes on the
     noisy cache. Access and RNG order are identical to the historical
     list/record-based code (pinned by test/golden/attacks.golden). *)
  let plan = Probe_plan.make engine ~pid:attacker_pid in
  let p = Bytes.create 16 in
  let predicted =
    Array.init 256 (fun index -> Aes_layout.set_of_entry layout ~table ~index)
  in
  for _ = 1 to count do
    Probe_plan.prime_all plan;
    Victim.random_plaintext_into rng p;
    Victim.encrypt_quiet_fast victim p;
    Probe_plan.probe_all plan rng;
    for s = 0 to sets - 1 do
      if Probe_plan.classified_misses plan s > 0 then
        miss_freq.(s) <- miss_freq.(s) +. 1.
    done;
    let pb = Char.code (Bytes.get p c.target_byte) in
    for k = 0 to 255 do
      if Probe_plan.classified_misses plan predicted.(pb lxor k) > 0 then
        cand_hits.(k) <- cand_hits.(k) +. 1.
    done
  done;
  { miss_freq; cand_hits; span = count }

let finalize ~victim c { miss_freq; cand_hits; span } =
  let layout = Victim.layout victim in
  let epl = Aes_layout.entries_per_line layout in
  let ft = float_of_int span in
  let set_miss_rate = Array.map (fun x -> x /. ft) miss_freq in
  let scores = Array.map (fun x -> x /. ft) cand_hits in
  let true_byte =
    Char.code (Bytes.get (Aes.key_bytes (Victim.key victim)) c.target_byte)
  in
  let best_candidate = Recovery.argmax scores in
  {
    set_miss_rate;
    scores;
    best_candidate;
    true_byte;
    nibble_recovered = Recovery.nibble_recovered ~scores ~true_byte ~group_size:epl;
    separation = Recovery.separation scores ~winner:best_candidate;
  }

let run ~victim ~attacker_pid ~rng c =
  validate c;
  finalize ~victim c (run_span ~victim ~attacker_pid ~rng ~count:c.trials c)
