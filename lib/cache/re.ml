open Cachesec_stats

type t = {
  b : Backing.t;
  policy : Replacement.policy;
  interval : int;
  mutable since_eviction : int;
  mutable random_evictions : int;
}

let create ?(config = Config.direct_mapped) ?(policy = Replacement.Random)
    ?(interval = 10) ~rng () =
  if interval <= 0 then invalid_arg "Re.create: interval must be positive";
  {
    b = Backing.create config ~rng;
    policy;
    interval;
    since_eviction = 0;
    random_evictions = 0;
  }

let config t = t.b.Backing.cfg
let interval t = t.interval
let random_evictions t = t.random_evictions
(* Division-free on power-of-two set counts; same value as
   [Address.set_index]. *)
let set_of t addr = Backing.set_of t.b addr

(* Fires after every [interval]-th access: returns a uniformly random
   slot for the caller to evict, else -1. *)
let eviction_slot t =
  t.since_eviction <- t.since_eviction + 1;
  if t.since_eviction >= t.interval then begin
    t.since_eviction <- 0;
    t.random_evictions <- t.random_evictions + 1;
    Rng.int t.b.Backing.rng t.b.Backing.slab.Slab.n
  end
  else -1

let periodic_eviction t =
  let slot = eviction_slot t in
  if slot < 0 then None
  else begin
    let s = t.b.Backing.slab in
    let victim = Slab.victim s slot in
    if Slab.valid s slot then Slab.invalidate s slot;
    victim
  end

let access t ~pid addr =
  let b = t.b in
  let seq = Backing.tick b in
  let set = set_of t addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  let base =
    if i >= 0 then begin
      Policy.touch t.policy b.Backing.slab i ~seq;
      Outcome.hit
    end
    else begin
      let s = b.Backing.slab in
      let way =
        Policy.victim_in t.policy b.rng s
          ~base:(Backing.base_of_set b ~set) ~len:b.cfg.Config.ways
      in
      let evicted = Slab.victim s way in
      Slab.fill s way ~tag:addr ~owner:pid ~seq;
      Policy.filled t.policy s way;
      Outcome.fill ~fetched:addr ~evicted
    end
  in
  let outcome =
    (* The off-beat (interval - 1 of interval) accesses pass [base]
       through untouched, so plain RE hits stay allocation-free. *)
    match periodic_eviction t with
    | None -> base
    | Some _ as v -> { base with Outcome.also_evicted = v }
  in
  Counters.record b.counters ~pid outcome;
  outcome

let peek t ~pid:_ addr = Backing.find_tag t.b ~set:(set_of t addr) ~tag:addr >= 0

let flush_line t ~pid addr =
  let i = Backing.find_tag t.b ~set:(set_of t addr) ~tag:addr in
  if i >= 0 then begin
    Slab.invalidate t.b.Backing.slab i;
    Counters.record_flush t.b.Backing.counters ~pid;
    true
  end
  else false

let flush_all t = Backing.flush_all t.b

(* Batched Fill/Count replay ({!Kernel.arch_run} keeps Trace on the
   scalar loop): [access] with the counter cells and geometry hoisted,
   the policy still dispatched per access, and the periodic eviction
   counted straight into the cells instead of an [also_evicted]
   payload. *)
let run t ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let b = t.b in
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let ways = s.Slab.ways in
  let g = Counters.global_cell b.Backing.counters in
  let p = Counters.cell b.Backing.counters pid in
  for k = 0 to len - 1 do
    let addr = Array.unsafe_get trace (pos + k) in
    let seq = Backing.tick b in
    let base = set_of t addr * ways in
    let i = Slab.scan_tag tags addr base (base + ways) in
    if i >= 0 then begin
      Policy.touch t.policy s i ~seq;
      Kernel_sa.finish_hit g p mode k
    end
    else begin
      let way = Policy.victim_in t.policy b.rng s ~base ~len:ways in
      Kernel_sa.finish_miss_fill s way ~pid ~addr ~seq g p mode k;
      Policy.filled t.policy s way
    end;
    let slot = eviction_slot t in
    if slot >= 0 && Array.unsafe_get tags slot >= 0 then begin
      Slab.invalidate s slot;
      Counters.cell_evictions g 1;
      Counters.cell_evictions p 1
    end
  done

let engine ?(kernel = Kernel.Auto) t =
  let access ~pid addr = access t ~pid addr in
  let access_run, run_kernel = Kernel.arch_run kernel ~name:"re" ~access (run t) in
  {
    Engine.name =
      Printf.sprintf "re-%d-way-T%d" (config t).Config.ways t.interval;
    config = config t;
    sigma = 0.;
    kernel = Kernel.generic;
    slab = t.b.Backing.slab;
    access;
    access_run;
    run_kernel;
    peek = (fun ~pid addr -> peek t ~pid addr);
    flush_line = (fun ~pid addr -> flush_line t ~pid addr);
    flush_all = (fun () -> flush_all t);
    lock_line = Engine.no_lock;
    unlock_line = Engine.no_lock;
    set_window = Engine.no_window;
    counters = (fun () -> Counters.global t.b.Backing.counters);
    counters_for = (fun pid -> Counters.for_pid t.b.Backing.counters pid);
    reset_counters = (fun () -> Counters.reset t.b.Backing.counters);
    dump = (fun () -> Backing.dump t.b);
  }
