open Cachesec_stats

type selection = Auto | Generic | Scalar

let generic = "generic"
let scalar = "scalar"

let selection_to_string = function
  | Auto -> "auto"
  | Generic -> "generic"
  | Scalar -> "scalar"

let selection_of_string = function
  | "auto" -> Some Auto
  | "generic" -> Some Generic
  | "scalar" -> Some Scalar
  | _ -> None

(* Table-driven kernel registry, keyed by [Policy.id]: each engine
   declares its monomorphized kernels once and [pick] replaces the old
   per-engine [Kernel.Auto, Replacement.Lru -> ...] match ladders. A
   policy without an entry falls back to the generic path — adding a
   policy never breaks an engine, it just runs generic until someone
   monomorphizes it. *)

let table ~prefix entries =
  let t = Array.make Policy.count None in
  List.iter
    (fun (p, k) -> t.(Policy.id p) <- Some (prefix ^ "-" ^ Policy.to_string p, k))
    entries;
  t

let pick t (policy : Policy.t) = t.(Policy.id policy)

(* --- batched trace replay --------------------------------------------- *)

(* Accumulation state for a [Count] run: true/classified miss counts and
   observed-time sums folded into caller-owned scratch arrays at [bin].
   The caller preallocates one counter (and one [Count] mode value
   wrapping it) per plan/victim and re-points [bin]/[sigma]/[noise]
   between runs, so the trial loops stay allocation-free. At
   [sigma = 0.] no RNG is consumed and classified = true (the exact
   [Timing.observe]/[Timing.classify] collapse the scalar probe loop
   relies on); at [sigma > 0.] one gaussian is drawn from [noise] per
   access, in access order — the same stream the scalar
   [Timing.observe_outcome] loop consumes. *)
type counter = {
  true_misses : int array;
  classified : int array;
  times : float array;
  mutable bin : int;
  mutable sigma : float;
  mutable noise : Rng.t;
}

type mode =
  | Fill  (** outcomes discarded (prime/evict/warm phases) *)
  | Count of counter  (** fold miss counts; no [Outcome.t] is ever built *)
  | Trace of Outcome.t array
      (** full outcome writeback at indices [0 .. len-1] (compatibility) *)

let make_counter ~bins =
  if bins <= 0 then invalid_arg "Kernel.make_counter: bins must be positive";
  {
    true_misses = Array.make bins 0;
    classified = Array.make bins 0;
    times = Array.make bins 0.;
    bin = 0;
    sigma = 0.;
    noise = Rng.create ~seed:0;
  }

(* Per-access Count accumulation, shared by every batched kernel AND the
   scalar-looping fallback so the classification arithmetic has exactly
   one definition. [Timing.observe] keeps the draw semantics (mu = the
   event's base time) in one place. *)
let count_hit (c : counter) =
  if c.sigma <> 0. then begin
    let tm = Timing.observe c.noise ~sigma:c.sigma Outcome.Hit in
    (match Timing.classify tm with
    | Outcome.Miss -> c.classified.(c.bin) <- c.classified.(c.bin) + 1
    | Outcome.Hit -> ());
    c.times.(c.bin) <- c.times.(c.bin) +. tm
  end

let count_miss (c : counter) =
  c.true_misses.(c.bin) <- c.true_misses.(c.bin) + 1;
  if c.sigma = 0. then begin
    c.classified.(c.bin) <- c.classified.(c.bin) + 1;
    c.times.(c.bin) <- c.times.(c.bin) +. Timing.miss_time
  end
  else begin
    let tm = Timing.observe c.noise ~sigma:c.sigma Outcome.Miss in
    (match Timing.classify tm with
    | Outcome.Miss -> c.classified.(c.bin) <- c.classified.(c.bin) + 1
    | Outcome.Hit -> ());
    c.times.(c.bin) <- c.times.(c.bin) +. tm
  end

(* Generic [access_run]: loop the scalar access closure. Serves three
   roles — the fallback for engines without batched kernels (wrappers,
   Skewed, PL/RP under the newer policies), the [Scalar] selection's
   pre-batching cost model (monomorphized scalar access under the same
   loop), and the differential oracle the batched kernels are fuzzed
   against. *)
let run_of_scalar (access : pid:int -> int -> Outcome.t) ~pid ~trace ~pos ~len
    mode =
  match mode with
  | Fill ->
    for k = 0 to len - 1 do
      ignore (access ~pid (Array.unsafe_get trace (pos + k)))
    done
  | Count c ->
    for k = 0 to len - 1 do
      let o = access ~pid (Array.unsafe_get trace (pos + k)) in
      if Outcome.is_miss o then count_miss c else count_hit c
    done
  | Trace out ->
    for k = 0 to len - 1 do
      Array.unsafe_set out k (access ~pid (Array.unsafe_get trace (pos + k)))
    done

(* Selection for the engines with one policy-dispatching run loop per
   architecture (SP, Nomo, RF, RE): [Auto] sends Fill/Count runs to
   [run] and keeps Trace runs on the scalar loop, whose outcomes [run]
   never builds; [Generic] and [Scalar] loop [access] in every mode, so
   the differential fuzz compares [run] against an independent path. *)
let arch_run kernel ~name ~access run =
  let scalar = run_of_scalar access in
  match kernel with
  | Auto ->
    ( (fun ~pid ~trace ~pos ~len mode ->
        match mode with
        | Trace _ -> scalar ~pid ~trace ~pos ~len mode
        | Fill | Count _ -> run ~pid ~trace ~pos ~len mode),
      name )
  | Generic | Scalar -> (scalar, generic)
