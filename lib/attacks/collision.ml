open Cachesec_cache
open Cachesec_crypto
open Cachesec_stats

type config = {
  trials : int;
  byte_i : int;
  byte_j : int;
  victim_prefetch : bool;
}

let default_config =
  { trials = 20000; byte_i = 0; byte_j = 4; victim_prefetch = false }

type result = {
  avg_times : float array;
  counts : int array;
  scores : float array;
  best_delta : int;
  true_delta : int;
  nibble_recovered : bool;
  separation : float;
}

let validate c =
  if c.trials <= 0 then invalid_arg "Collision.run: trials must be positive";
  if c.byte_i < 0 || c.byte_i > 15 || c.byte_j < 0 || c.byte_j > 15 then
    invalid_arg "Collision.run: byte indices must be in 0..15";
  if c.byte_i = c.byte_j then invalid_arg "Collision.run: bytes must differ";
  if c.byte_i mod 4 <> c.byte_j mod 4 then
    invalid_arg "Collision.run: bytes must share a table (equal mod 4)"

(* --- partial (mergeable) trial accumulators -------------------------- *)

(* [times] is a Welford summary of every observed whole-block time —
   the adaptive runtime's stopping estimator ([observe]). It never feeds
   [finalize], so results (and the golden digests over them) are
   unchanged. *)
type partial = { sums : float array; counts : int array; times : Summary.t }

let empty_partial () =
  { sums = Array.make 256 0.; counts = Array.make 256 0; times = Summary.create () }

(* In-place fold — see [Prime_probe.merge_into] for the single-consumer
   argument that makes mutating the accumulator safe. *)
let merge_into a b =
  for i = 0 to 255 do
    a.sums.(i) <- a.sums.(i) +. b.sums.(i);
    a.counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  Summary.merge_into a.times b.times

let observe p = Sequential.Mean_rel p.times

let run_span ~victim ~rng ~count c =
  validate { c with trials = count };
  let engine = Victim.engine victim in
  let ({ sums; counts; times } as part) = empty_partial () in
  let p = Bytes.create 16 in
  for _ = 1 to count do
    engine.Engine.flush_all ();
    (* The software mitigation of [34]/[16]: the victim preloads its
       tables at the start of the security-critical operation, so reuse
       no longer depends on the secret indices. *)
    if c.victim_prefetch then Victim.warm_tables victim;
    Victim.random_plaintext_into rng p;
    let m = Victim.encrypt_misses victim p in
    let time = Timing.time_of_counts ~hits:(Aes.trace_length - m) ~misses:m in
    let observed =
      if engine.Engine.sigma = 0. then time
      else time +. Rng.gaussian rng ~mu:0. ~sigma:engine.Engine.sigma
    in
    let delta =
      Char.code (Bytes.get p c.byte_i) lxor Char.code (Bytes.get p c.byte_j)
    in
    sums.(delta) <- sums.(delta) +. observed;
    counts.(delta) <- counts.(delta) + 1;
    Summary.add times observed
  done;
  part

let finalize ~victim c { sums; counts; _ } =
  let grand_mean =
    Array.fold_left ( +. ) 0. sums /. float_of_int (Array.fold_left ( + ) 0 counts)
  in
  let avg_times =
    Array.init 256 (fun d ->
        if counts.(d) = 0 then grand_mean else sums.(d) /. float_of_int counts.(d))
  in
  (* Faster is likelier: negate so that higher score = better candidate. *)
  let scores = Recovery.normalize (Array.map (fun t -> -.t) avg_times) in
  let key = Aes.key_bytes (Victim.key victim) in
  let true_delta =
    Char.code (Bytes.get key c.byte_i) lxor Char.code (Bytes.get key c.byte_j)
  in
  let best_delta = Recovery.argmax scores in
  let epl = Aes_layout.entries_per_line (Victim.layout victim) in
  {
    avg_times;
    counts;
    scores;
    best_delta;
    true_delta;
    nibble_recovered =
      Recovery.nibble_recovered ~scores ~true_byte:true_delta ~group_size:epl;
    separation = Recovery.separation scores ~winner:best_delta;
  }

let run ~victim ~rng c =
  validate c;
  finalize ~victim c (run_span ~victim ~rng ~count:c.trials c)
