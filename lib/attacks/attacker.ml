open Cachesec_cache

let default_base = 1 lsl 20

(* Align the base to the set stride so base + set + k*sets lands in
   [set] under conventional indexing. *)
let nth_conflict_line cfg ?(base = default_base) ~set k =
  let sets = Config.sets cfg in
  if set < 0 || set >= sets then
    invalid_arg "Attacker.nth_conflict_line: bad set";
  base - (base mod sets) + set + (k * sets)

let evict_set engine ~pid ?(base = default_base) set =
  let cfg = engine.Engine.config in
  let sets = Config.sets cfg in
  if set < 0 || set >= sets then invalid_arg "Attacker.evict_set: bad set";
  let aligned = base - (base mod sets) in
  for k = 0 to cfg.Config.ways - 1 do
    ignore (engine.Engine.access ~pid (aligned + set + (k * sets)))
  done

let prime_all_sets engine ~pid ?base () =
  for set = 0 to Config.sets engine.Engine.config - 1 do
    evict_set engine ~pid ?base set
  done

type probe = { true_misses : int; classified_misses : int; time : float }

let probe_set engine rng ~pid ?base set =
  let cfg = engine.Engine.config in
  let true_misses = ref 0 and classified_misses = ref 0 and time = ref 0. in
  for k = 0 to cfg.Config.ways - 1 do
    let o = engine.Engine.access ~pid (nth_conflict_line cfg ?base ~set k) in
    let t = Timing.observe_outcome rng ~sigma:engine.Engine.sigma o in
    if Outcome.is_miss o then incr true_misses;
    (match Timing.classify t with
    | Outcome.Miss -> incr classified_misses
    | Outcome.Hit -> ());
    time := !time +. t
  done;
  {
    true_misses = !true_misses;
    classified_misses = !classified_misses;
    time = !time;
  }

let probe_all_sets engine rng ~pid ?base () =
  Array.init (Config.sets engine.Engine.config) (fun set ->
      probe_set engine rng ~pid ?base set)
