type t = { b : Backing.t; policy : Policy.t }

let create ?(config = Config.standard) ?(policy = Policy.Random) ~rng () =
  { b = Backing.create config ~rng; policy }

let config t = t.b.Backing.cfg
let policy t = t.policy
(* Division-free on power-of-two set counts; same value as
   [Address.set_index]. *)
let set_of t addr = Backing.set_of t.b addr

(* Generic access path: policy dispatched per access through the
   {!Policy} registry (victim selection on miss, touch hook on hit,
   filled hook after install). [Kernel_sa] holds the per-policy
   monomorphized equivalents selected by {!engine}; the two must stay
   bit-identical (state, RNG draws, outcomes — replayed against each
   other by the differential kernel tests). The hit path allocates
   nothing: tag probe and policy touch are int loops/stores over the
   slab and the outcome is the preallocated [Outcome.hit]. *)
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
      let evicted = Slab.victim s way in
      Slab.fill s way ~tag:addr ~owner:pid ~seq;
      Policy.filled t.policy s way;
      Outcome.fill ~fetched:addr ~evicted
    end
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
let counters t = t.b.Backing.counters

(* All seven policies are monomorphized for this engine (it is the
   gated bench row and the hottest path), each as a (scalar access,
   batched run) twin pair bound together at build time. *)
let kernels =
  Kernel.table ~prefix:"sa"
    [
      (Policy.Lru, (Kernel_sa.access_lru, Kernel_sa.run_lru));
      (Policy.Random, (Kernel_sa.access_random, Kernel_sa.run_random));
      (Policy.Fifo, (Kernel_sa.access_fifo, Kernel_sa.run_fifo));
      (Policy.Mru, (Kernel_sa.access_mru, Kernel_sa.run_mru));
      (Policy.Lfu, (Kernel_sa.access_lfu, Kernel_sa.run_lfu));
      (Policy.Mfu, (Kernel_sa.access_mfu, Kernel_sa.run_mfu));
      (Policy.Plru, (Kernel_sa.access_plru, Kernel_sa.run_plru));
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
    Engine.name = Printf.sprintf "sa-%d-way-%s" (config t).Config.ways
        (Policy.to_string t.policy);
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
    lock_line = Engine.no_lock;
    unlock_line = Engine.no_lock;
    set_window = Engine.no_window;
    counters = (fun () -> Counters.global t.b.Backing.counters);
    counters_for = (fun pid -> Counters.for_pid t.b.Backing.counters pid);
    reset_counters = (fun () -> Counters.reset t.b.Backing.counters);
    dump = (fun () -> Backing.dump t.b);
  }
