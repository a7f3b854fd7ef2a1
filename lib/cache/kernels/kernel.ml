open Cachesec_stats

(* The protocol between an architecture's one access step and the two
   entry points derived from it. A step mutates the engine state for one
   access and returns a small int code describing what happened; the
   payloads an [Outcome.t] needs (the line fetched, the lines displaced)
   go into the [Backing.t] scratch fields, written by [fill] and
   [also_evict]. [Engine.access] turns the code into an outcome
   ([record]); [Engine.access_run] folds it per mode ([finish]), building
   an outcome only in Trace mode.

   Code layout:
   - bit 0: miss
   - bit 1: the access filled a line ([Backing.fetched] and
     [Backing.evicted_*] describe that fill)
   - bit 2: the accessed line is not cached afterwards (read-through,
     or RF's fill of a neighbouring line)
   - bits 3+: valid lines displaced, 0 to 2; the one displaced by the
     fill first, any other in [Backing.also_*]. *)

let generic = "generic"

let hit = 0
let read_through = 0b101
let filled = 0b011
let not_cached code = code lor 0b100
let one_eviction = 0b1000
let[@inline] is_miss code = code land 1 <> 0

let[@inline] fill (b : Backing.t) way ~tag ~owner ~seq =
  let s = b.Backing.slab in
  let old = s.Slab.tags.(way) in
  b.Backing.fetched <- tag;
  b.Backing.evicted_owner <- s.Slab.owners.(way);
  b.Backing.evicted_line <- old;
  Slab.fill s way ~tag ~owner ~seq;
  if old >= 0 then filled lor one_eviction else filled

let also_evict (b : Backing.t) i =
  let s = b.Backing.slab in
  if s.Slab.tags.(i) < 0 then 0
  else begin
    b.Backing.also_owner <- s.Slab.owners.(i);
    b.Backing.also_line <- s.Slab.tags.(i);
    Slab.invalidate s i;
    one_eviction
  end

let outcome (b : Backing.t) code =
  if code = hit then Outcome.hit
  else if code = read_through then Outcome.miss_uncached
  else begin
    let did_fill = code land 0b10 <> 0 in
    let evicted =
      if did_fill && b.Backing.evicted_line >= 0 then
        Some (b.Backing.evicted_owner, b.Backing.evicted_line)
      else None
    in
    let from_fill = match evicted with Some _ -> 1 | None -> 0 in
    {
      Outcome.event = (if is_miss code then Outcome.Miss else Outcome.Hit);
      cached = code land 0b100 = 0;
      fetched = (if did_fill then Some b.Backing.fetched else None);
      evicted;
      also_evicted =
        (if code lsr 3 > from_fill then
           Some (b.Backing.also_owner, b.Backing.also_line)
         else None);
    }
  end

let record (b : Backing.t) ~pid code =
  let o = outcome b code in
  Counters.record b.Backing.counters ~pid o;
  o

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

(* Per-access Count accumulation, shared by [finish] AND the
   scalar-looping [run_of_scalar] so the classification arithmetic has
   exactly one definition. [Timing.observe] keeps the draw semantics
   (mu = the event's base time) in one place. *)
let[@inline] count_hit (c : counter) =
  if c.sigma <> 0. then begin
    let tm = Timing.observe c.noise ~sigma:c.sigma Outcome.Hit in
    (match Timing.classify tm with
    | Outcome.Miss -> c.classified.(c.bin) <- c.classified.(c.bin) + 1
    | Outcome.Hit -> ());
    c.times.(c.bin) <- c.times.(c.bin) +. tm
  end

let[@inline] count_miss (c : counter) =
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

(* The per-access epilogue of every engine's run loop: the pid cell
   bump [record] would make, then the mode's accumulation. *)
let[@inline] finish (b : Backing.t) c mode k code =
  if code = hit then begin
    Counters.cell_hit c;
    match mode with
    | Fill -> ()
    | Count n -> count_hit n
    | Trace out -> Array.unsafe_set out k Outcome.hit
  end
  else begin
    let miss = is_miss code in
    Counters.cell_add c ~miss ~read_through:(code land 0b100 <> 0)
      ~evictions:(code lsr 3);
    match mode with
    | Fill -> ()
    | Count n -> if miss then count_miss n else count_hit n
    | Trace out -> Array.unsafe_set out k (outcome b code)
  end

(* [access_run] for Hierarchy, the one wrapper with no step of its own:
   loop the scalar access closure. *)
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
