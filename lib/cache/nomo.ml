type t = {
  b : Backing.t;
  policy : Policy.t;
  reserved : int;
  protected_pids : int list;
}

let create ?(config = Config.standard) ?(policy = Policy.Random) ?reserved
    ~protected_pids ~rng () =
  let reserved = Option.value reserved ~default:(config.Config.ways / 4) in
  if reserved < 0 || reserved >= config.Config.ways then
    invalid_arg "Nomo.create: reserved must lie in [0, ways)";
  { b = Backing.create config ~rng; policy; reserved; protected_pids }

let config t = t.b.Backing.cfg
let reserved_ways t = t.reserved
let shared_ways t = t.b.Backing.cfg.Config.ways - t.reserved
let is_protected t pid = List.mem pid t.protected_pids
(* Division-free on power-of-two set counts; same value as
   [Address.set_index]. *)
let set_of t addr = Backing.set_of t.b addr

(* Top-level loop (all state as arguments): a local [let rec] capturing
   the slabs/[stop]/[pid] would allocate its closure on every miss under
   the non-flambda compiler. Valid lines have non-negative tags. *)
let rec count_owned (tags : int array) (owners : int array) pid i stop n =
  if i >= stop then n
  else
    count_owned tags owners pid (i + 1) stop
      (if tags.(i) >= 0 && owners.(i) = pid then n + 1 else n)

(* Valid lines in [base, base + len) filled by [pid]. Allocation-free. *)
let owned_in_range t ~base ~len ~pid =
  let s = t.b.Backing.slab in
  count_owned s.Slab.tags s.Slab.owners pid base (base + len) 0

(* The set's ways split into two contiguous slices: the first [reserved]
   ways and the shared remainder. A protected pid that holds fewer than
   [reserved] lines in the whole set fills into the reserved slice;
   everyone else fills into the shared slice. *)
let fills_reserved t ~protected ~base ~pid =
  protected
  && owned_in_range t ~base ~len:t.b.Backing.cfg.Config.ways ~pid < t.reserved

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
      let base = Backing.base_of_set b ~set and w = b.cfg.Config.ways in
      let in_reserved =
        fills_reserved t ~protected:(is_protected t pid) ~base ~pid
      in
      let cand_base = if in_reserved then base else base + t.reserved in
      let cand_len = if in_reserved then t.reserved else w - t.reserved in
      if cand_len <= 0 then
        (* reserved = 0 for a protected pid never happens (owned < 0 is
           impossible); an empty shared slice can only occur if
           reserved = ways, excluded at create. Still: serve
           read-through defensively. *)
        Outcome.miss_uncached
      else begin
        (* The reserved/shared slices are never a whole set, so under
           Plru the victim choice is the deterministic LRU fallback
           (tree bits are maintained by the hooks but never consulted
           for slice-shaped ranges — see {!Policy}). *)
        let way =
          Policy.victim_in t.policy b.rng s ~base:cand_base ~len:cand_len
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
   scalar loop): [access] with the counter cells, geometry and the pid's
   protection hoisted, the policy still dispatched per access. *)
let run t ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let b = t.b in
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let ways = s.Slab.ways in
  let protected = is_protected t pid in
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
      let in_reserved = fills_reserved t ~protected ~base ~pid in
      let cand_base = if in_reserved then base else base + t.reserved in
      let cand_len = if in_reserved then t.reserved else ways - t.reserved in
      if cand_len <= 0 then Kernel_sa.finish_miss_uncached g p mode k
      else begin
        let way =
          Policy.victim_in t.policy b.rng s ~base:cand_base ~len:cand_len
        in
        Kernel_sa.finish_miss_fill s way ~pid ~addr ~seq g p mode k;
        Policy.filled t.policy s way
      end
    end
  done

let engine ?(kernel = Kernel.Auto) t =
  let access ~pid addr = access t ~pid addr in
  let access_run, run_kernel =
    Kernel.arch_run kernel ~name:"nomo" ~access (run t)
  in
  {
    Engine.name =
      Printf.sprintf "nomo-%d/%d-reserved" t.reserved (config t).Config.ways;
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
