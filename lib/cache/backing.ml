open Cachesec_stats

type t = {
  cfg : Config.t;
  slab : Slab.t;
  mutable seq : int;
  counters : Counters.t;
  mutable rng : Rng.t;
  sets : int;  (** [Config.sets cfg], precomputed off the access path *)
  set_mask : int;  (** [sets - 1]: {!set_of} is a masked AND *)
  mutable fetched : int;
  mutable evicted_owner : int;
  mutable evicted_line : int;
  mutable also_owner : int;
  mutable also_line : int;
}

let create cfg ~rng =
  let sets = Config.sets cfg in
  {
    cfg;
    slab = Slab.create ~lines:cfg.Config.lines ~ways:cfg.Config.ways;
    seq = 0;
    counters = Counters.create ();
    rng;
    sets;
    set_mask = sets - 1;
    fetched = -1;
    evicted_owner = -1;
    evicted_line = -1;
    also_owner = -1;
    also_line = -1;
  }

let tick t =
  t.seq <- t.seq + 1;
  t.seq

(* --- hot path: bounded int scans over the flat slabs ---------------- *)

(* Conventional set index of a line. Same value as [Address.set_index
   t.cfg line] with no division: [Config.v] makes [lines] a power of two
   and [ways] divide it, so [sets] is a power of two too, and line
   numbers are non-negative, so [land] and [mod] agree. *)
let set_of t line = line land t.set_mask

(* Global index of the valid line in [set] holding [tag], or -1. *)
let find_tag t ~set ~tag =
  let w = t.cfg.Config.ways in
  Slab.find_tag t.slab ~tag ~base:(set * w) ~len:w

(* As [find_tag], additionally requiring the filling pid to match (the
   RP cache's PID feature: the tag array stores the owning context). *)
let find_tag_owned t ~set ~tag ~owner =
  let w = t.cfg.Config.ways in
  Slab.find_tag_owned t.slab ~tag ~owner ~base:(set * w) ~len:w

let find t line = find_tag t ~set:(set_of t line) ~tag:line

(* --- cold paths ---------------------------------------------------- *)

let flush t ~pid i =
  if i >= 0 then begin
    Slab.invalidate t.slab i;
    Counters.record_flush t.counters ~pid
  end;
  i >= 0

let ways_of_set t ~set =
  let w = t.cfg.Config.ways in
  if set < 0 || set >= Config.sets t.cfg then
    invalid_arg "Backing.ways_of_set: set out of range";
  List.init w (fun i -> (set * w) + i)

let flush_all t =
  Counters.record_eviction t.counters ~count:(Slab.clear t.slab)

(* The state [create] returned, on [rng]: the slab clear touches only
   the logged lines, and nothing here allocates. *)
let reset t ~rng =
  ignore (Slab.clear t.slab);
  t.seq <- 0;
  Counters.reset t.counters;
  t.rng <- rng;
  t.fetched <- -1;
  t.evicted_owner <- -1;
  t.evicted_line <- -1;
  t.also_owner <- -1;
  t.also_line <- -1
