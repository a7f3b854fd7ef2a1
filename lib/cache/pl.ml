type t = { b : Backing.t; policy : Replacement.policy }

let create ?(config = Config.standard) ?(policy = Replacement.Random) ~rng () =
  { b = Backing.create config ~rng; policy }

let config t = t.b.Backing.cfg
(* Division-free on power-of-two set counts; same value as
   [Address.set_index]. *)
let set_of t addr = Backing.set_of t.b addr

(* Generic access path; [Kernel_pl] holds the per-policy monomorphized
   equivalents (bit-identical, see the differential kernel tests). *)
let access t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = Backing.tick b in
  let set = set_of t addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  let outcome =
    if i >= 0 then begin
      Policy.touch t.policy s i ~seq;
      Outcome.hit
    end
    else begin
      let way =
        Policy.victim_in t.policy b.rng s
          ~base:(Backing.base_of_set b ~set) ~len:b.cfg.Config.ways
      in
      if Slab.valid s way && Slab.locked s way then
        (* Protected victim: direct memory-to-processor transfer (no
           fill, so no [Policy.filled] either — the tree/counters only
           move when cache state does). *)
        Outcome.miss_uncached
      else begin
        let evicted = Slab.victim s way in
        Slab.fill s way ~tag:addr ~owner:pid ~seq;
        Policy.filled t.policy s way;
        Outcome.fill ~fetched:addr ~evicted
      end
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

(* Cold path: locking may need the victim choice restricted to the
   unlocked (non-contiguous) ways, so it keeps the list form. *)
let lock_line t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let set = set_of t addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  if i >= 0 then begin
    Slab.set_locked s i true;
    s.Slab.owners.(i) <- pid;
    true
  end
  else begin
    let seq = Backing.tick b in
    let unlocked =
      List.filter (fun i -> not (Slab.locked s i)) (Backing.ways_of_set b ~set)
    in
    match unlocked with
    | [] -> false
    | candidates ->
      let way = Policy.victim_among_in t.policy b.rng s ~candidates in
      let evicted = if Slab.valid s way then 1 else 0 in
      Slab.fill s way ~tag:addr ~owner:pid ~seq;
      Policy.filled t.policy s way;
      Slab.set_locked s way true;
      Counters.record_eviction b.counters ~count:evicted;
      true
  end

let unlock_line t ~pid addr =
  let s = t.b.Backing.slab in
  let i = Backing.find_tag t.b ~set:(set_of t addr) ~tag:addr in
  if i >= 0 && Slab.locked s i && s.Slab.owners.(i) = pid then begin
    Slab.set_locked s i false;
    true
  end
  else false

let locked_lines t =
  Backing.dump t.b
  |> List.filter_map (fun (_, (l : Line.t)) -> if l.locked then Some l.tag else None)
  |> List.sort Int.compare

let peek t ~pid:_ addr = Backing.find_tag t.b ~set:(set_of t addr) ~tag:addr >= 0

let flush_line t ~pid addr =
  let s = t.b.Backing.slab in
  let i = Backing.find_tag t.b ~set:(set_of t addr) ~tag:addr in
  if i >= 0 then begin
    if Slab.locked s i && s.Slab.owners.(i) <> pid then false
    else begin
      Slab.invalidate s i;
      Counters.record_flush t.b.Backing.counters ~pid;
      true
    end
  end
  else false

let flush_all t = Backing.flush_all t.b

(* Only the three original policies are monomorphized here; the newer
   ones run the generic path (Kernel.pick returns None). *)
let kernels =
  Kernel.table ~prefix:"pl"
    [
      (Policy.Lru, (Kernel_pl.access_lru, Kernel_pl.run_lru));
      (Policy.Random, (Kernel_pl.access_random, Kernel_pl.run_random));
      (Policy.Fifo, (Kernel_pl.access_fifo, Kernel_pl.run_fifo));
    ]

let engine ?(kernel = Kernel.Auto) t =
  let generic ~pid addr = access t ~pid addr in
  let access, run, kernel_name, run_name =
    match (kernel, Kernel.pick kernels t.policy) with
    | Kernel.Auto, Some (name, (a, r)) -> (a t.b, r t.b, name, name)
    | Kernel.Scalar, Some (name, (a, _)) ->
      let a = a t.b in
      (a, Kernel.run_of_scalar a, name, Kernel.scalar)
    | (Kernel.Auto | Kernel.Scalar), None | Kernel.Generic, _ ->
      (generic, Kernel.run_of_scalar generic, Kernel.generic, Kernel.generic)
  in
  {
    Engine.name = Printf.sprintf "pl-%d-way" (config t).Config.ways;
    config = config t;
    sigma = 0.;
    kernel = kernel_name;
    slab = t.b.Backing.slab;
    access;
    access_run = run;
    run_kernel = run_name;
    peek = (fun ~pid addr -> peek t ~pid addr);
    flush_line = (fun ~pid addr -> flush_line t ~pid addr);
    flush_all = (fun () -> flush_all t);
    lock_line = (fun ~pid addr -> lock_line t ~pid addr);
    unlock_line = (fun ~pid addr -> unlock_line t ~pid addr);
    set_window = Engine.no_window;
    counters = (fun () -> Counters.global t.b.Backing.counters);
    counters_for = (fun pid -> Counters.for_pid t.b.Backing.counters pid);
    reset_counters = (fun () -> Counters.reset t.b.Backing.counters);
    dump = (fun () -> Backing.dump t.b);
  }
