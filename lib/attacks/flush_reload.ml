open Cachesec_cache
open Cachesec_crypto

type config = { trials : int; target_byte : int; victim_prefetch : bool }

let default_config = { trials = 2000; target_byte = 0; victim_prefetch = false }

type result = {
  line_hit_rate : float array;
  scores : float array;
  best_candidate : int;
  true_byte : int;
  nibble_recovered : bool;
  separation : float;
}

let validate c =
  if c.trials <= 0 then invalid_arg "Flush_reload.run: trials must be positive";
  if c.target_byte < 0 || c.target_byte > 15 then
    invalid_arg "Flush_reload.run: target_byte must be in 0..15"

(* --- partial (mergeable) trial accumulators -------------------------- *)

type partial = {
  hit_counts : float array;
  cand_hits : float array;
  mutable span : int;
}

(* In-place fold — see [Prime_probe.merge_into] for the single-consumer
   argument that makes mutating the accumulator safe. *)
let merge_into a b =
  if Array.length a.hit_counts <> Array.length b.hit_counts then
    invalid_arg "Flush_reload.merge_into: line-count mismatch";
  for i = 0 to Array.length a.hit_counts - 1 do
    a.hit_counts.(i) <- a.hit_counts.(i) +. b.hit_counts.(i)
  done;
  for k = 0 to 255 do
    a.cand_hits.(k) <- a.cand_hits.(k) +. b.cand_hits.(k)
  done;
  a.span <- a.span + b.span

(* Adaptive-runtime estimator: the best candidate's reload-hit rate, a
   proportion over the span — computed from the merged partial's
   existing accumulators, never inside the zero-allocation trial loop. *)
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
  let table = c.target_byte mod 4 in
  let lines = Array.of_list (Aes_layout.table_lines layout ~table) in
  let nlines = Array.length lines in
  let epl = Aes_layout.entries_per_line layout in
  let hit_counts = Array.make nlines 0. in
  let cand_hits = Array.make 256 0. in
  (* Per-trial scratch, hoisted out of the loop: the reload counter's
     per-line slots are reset before each reload, the plaintext buffer
     is refilled, and the table region to flush is one contiguous line
     range. At sigma 0 the trial loop allocates nothing (test_hotpath's
     attack-trial guards); at sigma > 0 each reload's gaussian draw
     boxes floats, 64 minor words per trial of 16 reloads on the noisy
     cache. Access/RNG order matches the historical per-trial-list code
     bit for bit. *)
  let p = Bytes.create 16 in
  let flush_base = Aes_layout.base_line layout in
  let flush_count = Aes_layout.line_count layout in
  (* Reload classification: line [idx] folds into slot [idx], observed
     through the engine's sigma on the experiment stream. *)
  let counter = Kernel.make_counter ~bins:nlines in
  counter.Kernel.sigma <- engine.Engine.sigma;
  counter.Kernel.noise <- rng;
  let reload = Kernel.Count counter in
  let missed = counter.Kernel.misses in
  for _ = 1 to count do
    (* Flush the whole shared table region (all five tables) so later-
       round fetches cannot linger across trials. *)
    for line = flush_base to flush_base + flush_count - 1 do
      ignore (engine.Engine.flush_line ~pid:attacker_pid line)
    done;
    (* Prefetching makes every table line victim-touched, drowning the
       secret-dependent reload signal at operation granularity. *)
    if c.victim_prefetch then Victim.warm_tables victim;
    Victim.random_plaintext_into rng p;
    Victim.encrypt_quiet_fast victim p;
    (* Reload: one [len:1] Count run per line, each into its own slot.
       The engine's draws (its own stream) and the observation draws
       (the experiment stream) interleave per access; the streams are
       distinct, so each consumes exactly the scalar sequence. *)
    for idx = 0 to nlines - 1 do
      missed.(idx) <- 0;
      counter.Kernel.bin <- idx;
      engine.Engine.access_run ~pid:attacker_pid ~trace:lines ~pos:idx ~len:1
        reload
    done;
    for idx = 0 to nlines - 1 do
      if missed.(idx) = 0 then hit_counts.(idx) <- hit_counts.(idx) +. 1.
    done;
    let pb = Char.code (Bytes.get p c.target_byte) in
    for k = 0 to 255 do
      let predicted = (pb lxor k) / epl in
      if missed.(predicted) = 0 then cand_hits.(k) <- cand_hits.(k) +. 1.
    done
  done;
  { hit_counts; cand_hits; span = count }

let finalize ~victim c { hit_counts; cand_hits; span } =
  let epl = Aes_layout.entries_per_line (Victim.layout victim) in
  let ft = float_of_int span in
  let line_hit_rate = Array.map (fun x -> x /. ft) hit_counts in
  let scores = Array.map (fun x -> x /. ft) cand_hits in
  let true_byte =
    Char.code (Bytes.get (Aes.key_bytes (Victim.key victim)) c.target_byte)
  in
  let best_candidate = Recovery.argmax scores in
  {
    line_hit_rate;
    scores;
    best_candidate;
    true_byte;
    nibble_recovered = Recovery.nibble_recovered ~scores ~true_byte ~group_size:epl;
    separation = Recovery.separation scores ~winner:best_candidate;
  }

let run ~victim ~attacker_pid ~rng c =
  validate c;
  finalize ~victim c (run_span ~victim ~attacker_pid ~rng ~count:c.trials c)
