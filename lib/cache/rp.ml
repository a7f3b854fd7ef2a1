open Cachesec_stats

(* The per-pid permutation tables (and their single-entry memo) live in
   [Kernel_rp.map] so the monomorphized kernels and this generic path
   share one state record — a stale memo in either would silently fork
   the mappings. *)
type t = { b : Backing.t; policy : Policy.t; map : Kernel_rp.map }

let create ?(config = Config.standard) ?(policy = Policy.Random) ~rng () =
  { b = Backing.create config ~rng; policy; map = Kernel_rp.create_map () }

let config t = t.b.Backing.cfg
let sets t = Config.sets t.b.Backing.cfg
let table_of t pid = Kernel_rp.table_of t.map ~sets:(sets t) pid
let table t ~pid = Array.copy (table_of t pid)
let set_identity t ~pid = Kernel_rp.set_identity t.map ~sets:(sets t) ~pid
let physical_set t ~pid addr = (table_of t pid).(Backing.set_of t.b addr)

let access t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = Backing.tick b in
  let logical = Backing.set_of b addr in
  let set = (table_of t pid).(logical) in
  (* PID feature: the tag array conceptually stores the owning context,
     so the probe requires the owner to match too. *)
  let i = Backing.find_tag_owned b ~set ~tag:addr ~owner:pid in
  let outcome =
    if i >= 0 then begin
      Policy.touch t.policy s i ~seq;
      Outcome.hit
    end
    else begin
      let w = b.cfg.Config.ways in
      let way =
        Policy.victim_in t.policy b.rng s
          ~base:(Backing.base_of_set b ~set) ~len:w
      in
      if s.Slab.tags.(way) < 0 || s.Slab.owners.(way) = pid then begin
        (* Internal miss: replace in place. *)
        let evicted = Slab.victim s way in
        Slab.fill s way ~tag:addr ~owner:pid ~seq;
        Policy.filled t.policy s way;
        Outcome.fill ~fetched:addr ~evicted
      end
      else begin
        (* External miss: random set, random line there, swap mappings. *)
        let s' = Rng.int b.rng b.Backing.sets in
        let way' = Backing.base_of_set b ~set:s' + Rng.int b.rng w in
        let evicted = Slab.victim s way' in
        Slab.fill s way' ~tag:addr ~owner:pid ~seq;
        Policy.filled t.policy s way';
        Kernel_rp.swap_mapping t.map ~sets:(sets t) pid ~logical
          ~target_set:s';
        Outcome.fill ~fetched:addr ~evicted
      end
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

let peek t ~pid addr =
  Backing.find_tag_owned t.b ~set:(physical_set t ~pid addr) ~tag:addr
    ~owner:pid
  >= 0

let flush_line t ~pid addr =
  let i =
    Backing.find_tag_owned t.b ~set:(physical_set t ~pid addr) ~tag:addr
      ~owner:pid
  in
  if i >= 0 then begin
    Slab.invalidate t.b.Backing.slab i;
    Counters.record_flush t.b.Backing.counters ~pid;
    true
  end
  else false

let flush_all t = Backing.flush_all t.b

(* Only the three original policies are monomorphized here; the newer
   ones run the generic path (Kernel.pick returns None). *)
let kernels =
  Kernel.table ~prefix:"rp"
    [
      (Policy.Lru, (Kernel_rp.access_lru, Kernel_rp.run_lru));
      (Policy.Random, (Kernel_rp.access_random, Kernel_rp.run_random));
      (Policy.Fifo, (Kernel_rp.access_fifo, Kernel_rp.run_fifo));
    ]

let engine ?(kernel = Kernel.Auto) t =
  let generic ~pid addr = access t ~pid addr in
  let access, run, kernel_name, run_name =
    match (kernel, Kernel.pick kernels t.policy) with
    | Kernel.Auto, Some (name, (a, r)) -> (a t.map t.b, r t.map t.b, name, name)
    | Kernel.Scalar, Some (name, (a, _)) ->
      let a = a t.map t.b in
      (a, Kernel.run_of_scalar a, name, Kernel.scalar)
    | (Kernel.Auto | Kernel.Scalar), None | Kernel.Generic, _ ->
      (generic, Kernel.run_of_scalar generic, Kernel.generic, Kernel.generic)
  in
  {
    Engine.name = Printf.sprintf "rp-%d-way" (config t).Config.ways;
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
