type t = {
  b : Backing.t;
  policy : Policy.t;
  partitions : int;
  per : int;  (** sets per partition, precomputed off the access path *)
  home : int -> int;
  partition_of_pid : int -> int;
}

let create ?(config = Config.standard) ?(policy = Policy.Random)
    ?(partitions = 2) ~home ~partition_of_pid ~rng () =
  if partitions <= 0 then invalid_arg "Sp.create: partitions must be positive";
  if Config.sets config mod partitions <> 0 then
    invalid_arg "Sp.create: partitions must divide the set count";
  {
    b = Backing.create config ~rng;
    policy;
    partitions;
    per = Config.sets config / partitions;
    home;
    partition_of_pid;
  }

(* Top-level scan with every free variable as an argument: a
   [List.exists] lambda capturing [line] would allocate its closure on
   every [home] call, i.e. on every access. *)
let rec in_ranges line = function
  | [] -> false
  | (lo, hi) :: rest -> (line >= lo && line <= hi) || in_ranges line rest

let create_two_domain ?config ?policy ?(partitions = 2) ~victim_pid
    ~victim_lines ~rng () =
  let home line = if in_ranges line victim_lines then 0 else 1 in
  let partition_of_pid pid = if pid = victim_pid then 0 else 1 in
  create ?config ?policy ~partitions ~home ~partition_of_pid ~rng ()

let config t = t.b.Backing.cfg
let sets_per_partition t = Config.sets t.b.Backing.cfg / t.partitions

let check_partition t p who =
  if p < 0 || p >= t.partitions then
    invalid_arg (Printf.sprintf "Sp: %s returned partition %d of %d" who p t.partitions)

(* The set of a line is determined by its home partition, so both processes
   agree on where a shared line lives. *)
let set_of t addr =
  let p = t.home addr in
  check_partition t p "home";
  (p * t.per) + (addr mod t.per)

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
      let own = t.partition_of_pid pid in
      check_partition t own "partition_of_pid";
      if own <> t.home addr then
        (* Cross-partition miss: served from memory, nothing displaced. *)
        Outcome.miss_uncached
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

(* Batched Fill/Count replay ({!Kernel.arch_run} keeps Trace on the
   scalar loop): [access] with the counter cells and geometry hoisted,
   the policy still dispatched per access, no [Outcome.t] built. *)
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
      let own = t.partition_of_pid pid in
      check_partition t own "partition_of_pid";
      if own <> t.home addr then Kernel_sa.finish_miss_uncached g p mode k
      else begin
        let way = Policy.victim_in t.policy b.rng s ~base ~len:ways in
        Kernel_sa.finish_miss_fill s way ~pid ~addr ~seq g p mode k;
        Policy.filled t.policy s way
      end
    end
  done

let engine ?(kernel = Kernel.Auto) t =
  let access ~pid addr = access t ~pid addr in
  let access_run, run_kernel = Kernel.arch_run kernel ~name:"sp" ~access (run t) in
  {
    Engine.name = Printf.sprintf "sp-%d-part-%d-way" t.partitions (config t).Config.ways;
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
