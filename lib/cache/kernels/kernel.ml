open Cachesec_stats

(* The protocol between an architecture's one access step and the two
   entry points derived from it. A step mutates the engine state for one
   access and returns a small int code describing what happened; the
   payloads an [Outcome.t] needs (the line fetched, the lines displaced)
   go into the [Backing.t] scratch fields, written by [fill] and
   [also_evict]. [Engine.access] turns the code into an outcome
   ([record]); [Engine.access_run] folds it per mode ([finish]) and never
   builds one.

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

(* A [Count] run folds each access's classified miss into
   [misses.(bin)] of a caller-owned counter (see kernel.mli). *)
type counter = {
  misses : int array;
  mutable bin : int;
  mutable sigma : float;
  mutable noise : Rng.t;
}

type mode =
  | Fill  (** outcomes discarded (prime/evict/warm phases) *)
  | Count of counter  (** fold miss counts; no [Outcome.t] is ever built *)

let make_counter ~bins =
  if bins <= 0 then invalid_arg "Kernel.make_counter: bins must be positive";
  { misses = Array.make bins 0; bin = 0; sigma = 0.; noise = Rng.create ~seed:0 }

(* Per-access Count accumulation, shared by [finish] AND the
   scalar-looping [run_of_scalar] so the classification has exactly one
   definition. [Timing.observe] keeps the draw semantics (mu = the
   event's base time) in one place. *)
let[@inline] count (c : counter) event =
  let seen =
    if c.sigma = 0. then event
    else Timing.classify (Timing.observe c.noise ~sigma:c.sigma event)
  in
  match seen with
  | Outcome.Miss -> c.misses.(c.bin) <- c.misses.(c.bin) + 1
  | Outcome.Hit -> ()

(* The per-access epilogue of every engine's run loop: the pid cell
   bump [record] would make, then the mode's accumulation. *)
let[@inline] finish cell mode code =
  if code = hit then begin
    Counters.cell_hit cell;
    match mode with Fill -> () | Count c -> count c Outcome.Hit
  end
  else begin
    let miss = is_miss code in
    Counters.cell_add cell ~miss ~read_through:(code land 0b100 <> 0)
      ~evictions:(code lsr 3);
    match mode with
    | Fill -> ()
    | Count c -> count c (if miss then Outcome.Miss else Outcome.Hit)
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
      count c (access ~pid (Array.unsafe_get trace (pos + k))).Outcome.event
    done
