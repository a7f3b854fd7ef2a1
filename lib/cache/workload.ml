open Cachesec_stats

type pattern =
  | Sequential of { start : int; length : int }
  | Loop of { start : int; length : int }
  | Strided of { start : int; stride : int; count : int }
  | Uniform of { base : int; range : int }
  | Zipf of { base : int; range : int; exponent : float }

let pattern_name = function
  | Sequential { length; _ } -> Printf.sprintf "sequential-%d" length
  | Loop { length; _ } -> Printf.sprintf "loop-%d" length
  | Strided { stride; count; _ } -> Printf.sprintf "strided-%dx%d" stride count
  | Uniform { range; _ } -> Printf.sprintf "uniform-%d" range
  | Zipf { range; exponent; _ } -> Printf.sprintf "zipf-%d-%.2g" range exponent

let zipf_cdf ~range ~exponent =
  let w = Array.init range (fun r -> 1. /. (float_of_int (r + 1) ** exponent)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let sample_cdf rng cdf =
  let u = Rng.float rng 1.0 in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let generate pattern rng ~accesses =
  if accesses <= 0 then invalid_arg "Workload.generate: accesses must be positive";
  let positive what n = if n <= 0 then invalid_arg ("Workload.generate: " ^ what) in
  match pattern with
  | Sequential { start; length } ->
    positive "empty sequential range" length;
    Array.init accesses (fun i -> start + Stdlib.min i (length - 1))
  | Loop { start; length } ->
    positive "empty loop range" length;
    Array.init accesses (fun i -> start + (i mod length))
  | Strided { start; stride; count } ->
    positive "empty stride count" count;
    positive "non-positive stride" stride;
    Array.init accesses (fun i -> start + (i mod count * stride))
  | Uniform { base; range } ->
    positive "empty uniform range" range;
    Array.init accesses (fun _ -> base + Rng.int rng range)
  | Zipf { base; range; exponent } ->
    positive "empty zipf range" range;
    let cdf = zipf_cdf ~range ~exponent in
    (* Shuffle the rank->line assignment so popular lines are not
       adjacent (adjacency would flatter low-associativity caches). *)
    let lines = Rng.permutation rng range in
    Array.init accesses (fun _ -> base + lines.(sample_cdf rng cdf))

let replay engine ~pid trace =
  Array.iter (fun line -> ignore (engine.Engine.access ~pid line)) trace

let hit_rate engine ~pid pattern ~rng ~accesses =
  Counters.reset engine.Engine.counters;
  replay engine ~pid (generate pattern rng ~accesses);
  Counters.hit_rate (Counters.for_pid engine.Engine.counters pid)
