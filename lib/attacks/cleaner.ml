open Cachesec_cache

let victim_pid = 0
let attacker_pid = 1
let target_set = 0

let scenario =
  { Factory.victim_pid; victim_lines = [ (0, Attacker.default_base - 1) ] }

(* One sample on [engine], freshly built or reset. *)
let game spec (engine : Engine.t) ~accesses =
  let cfg = engine.Engine.config in
  let sets = Config.sets cfg and ways = cfg.Config.ways in
  (* The cleaning game starts from the victim's data being IN the cache;
     under RF the victim's randomized fills would defeat the seeding
     itself, so seed with a demand window (the game measures cleaning,
     not filling). *)
  engine.Engine.set_window ~pid:victim_pid ~back:0 ~fwd:0;
  (* Victim seeds the target set. *)
  let seeded =
    match spec with
    | Spec.Newcache _ -> [ 0 ]
    | Spec.Sa _ | Spec.Sp _ | Spec.Pl _ | Spec.Nomo _ | Spec.Rp _ | Spec.Rf _
    | Spec.Re _ | Spec.Noisy _ ->
      List.init ways (fun k -> target_set + (k * sets))
  in
  List.iter (fun l -> ignore (engine.Engine.access ~pid:victim_pid l)) seeded;
  (match spec with
  | Spec.Pl _ ->
    List.iter (fun l -> ignore (engine.Engine.lock_line ~pid:victim_pid l)) seeded
  | _ -> ());
  (* What must be gone for the attacker to have "cleaned" the set: for
     Nomo only the victim lines that spilled into shared ways count (the
     reserved ways are untouchable by design, and the paper's success
     criterion is evicting all shared lines). *)
  let targets =
    match spec with
    | Spec.Nomo { reserved; _ } ->
      Engine.dump engine
      |> List.filter_map (fun (idx, (l : Line.t)) ->
             if l.owner = victim_pid && idx mod ways >= reserved then Some l.tag
             else None)
    | _ -> seeded
  in
  (* Attacker: [accesses] distinct reads mapping to the target set. *)
  for k = 0 to accesses - 1 do
    ignore
      (engine.Engine.access ~pid:attacker_pid
         (Attacker.nth_conflict_line cfg ~set:target_set k))
  done;
  targets <> []
  && List.for_all (fun l -> not (engine.Engine.peek ~pid:victim_pid l)) targets

let clean_once spec ~rng ~accesses =
  if accesses < 0 then invalid_arg "Cleaner.clean_once: negative accesses";
  game spec (Factory.build spec scenario ~rng) ~accesses

(* One engine for all [samples]: each later sample resets it on the
   next split stream, the state [clean_once] would build from it. *)
let count_wins spec ~accesses ~samples ~rng =
  if samples <= 0 then invalid_arg "Cleaner.count_wins: samples must be positive";
  if accesses < 0 then invalid_arg "Cleaner.count_wins: negative accesses";
  let next = Factory.sampler spec scenario ~rng in
  let wins = ref 0 in
  for _ = 1 to samples do
    if game spec (next ()) ~accesses then incr wins
  done;
  !wins

let monte_carlo spec ~accesses ~samples ~rng =
  if samples <= 0 then invalid_arg "Cleaner.monte_carlo: samples must be positive";
  float_of_int (count_wins spec ~accesses ~samples ~rng) /. float_of_int samples
