open Cachesec_stats

type t = {
  b : Backing.t;
  policy : Replacement.policy;
  default_window : int * int;
  windows : (int, int * int) Hashtbl.t;
}

let create ?(config = Config.standard) ?(policy = Replacement.Random)
    ?(default_window = (0, 0)) ~rng () =
  let back, fwd = default_window in
  if back < 0 || fwd < 0 then invalid_arg "Rf.create: negative window";
  { b = Backing.create config ~rng; policy; default_window; windows = Hashtbl.create 8 }

let config t = t.b.Backing.cfg

(* [Hashtbl.find] + [Not_found] rather than [find_opt]: runs on every
   miss, and the option wrapper would allocate. *)
let window t ~pid =
  match Hashtbl.find t.windows pid with
  | w -> w
  | exception Not_found -> t.default_window

let set_window t ~pid ~back ~fwd =
  if back < 0 || fwd < 0 then invalid_arg "Rf.set_window: negative window";
  Hashtbl.replace t.windows pid (back, fwd)

(* Division-free on power-of-two set counts; same value as
   [Address.set_index]. *)
let set_of t addr = Backing.set_of t.b addr

(* Install [line] unless already cached; the filled outcome for an
   access to [addr] that randomly fetched [line]. *)
let fill_line t ~pid ~addr line ~seq =
  let b = t.b in
  let s = b.Backing.slab in
  let set = set_of t line in
  if Backing.find_tag b ~set ~tag:line >= 0 then
    (* already cached; nothing fetched, nothing displaced *)
    Outcome.miss_uncached
  else begin
    let way =
      Policy.victim_in t.policy b.rng s
        ~base:(Backing.base_of_set b ~set) ~len:b.cfg.Config.ways
    in
    let evicted = Slab.victim s way in
    Slab.fill s way ~tag:line ~owner:pid ~seq;
    Policy.filled t.policy s way;
    {
      Outcome.event = Miss;
      cached = line = addr;
      fetched = Some line;
      evicted;
      also_evicted = None;
    }
  end

let access t ~pid addr =
  let b = t.b in
  let seq = Backing.tick b in
  let set = set_of t addr in
  let i = Backing.find_tag b ~set ~tag:addr in
  let outcome =
    if i >= 0 then begin
      Policy.touch t.policy b.Backing.slab i ~seq;
      Outcome.hit
    end
    else begin
      let back, fwd = window t ~pid in
      (* Uniform over the window [addr - back, addr + fwd], clamped to
         non-negative lines. A zero window is exactly demand fetch and
         draws no randomness (so RF(0,0) replays an SA cache's RNG
         stream bit-for-bit). *)
      let lo = Stdlib.max 0 (addr - back) and hi = addr + fwd in
      let target = if lo = hi then lo else lo + Rng.int b.rng (hi - lo + 1) in
      fill_line t ~pid ~addr target ~seq
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
   window hoisted (no [set_window] can run mid-replay), the policy still
   dispatched per access. A window line other than [addr] is fetched
   read-through: it counts as an uncached miss plus whatever it
   displaced. *)
let run t ~pid ~trace ~pos ~len (mode : Kernel.mode) =
  let b = t.b in
  let s = b.Backing.slab in
  let tags = s.Slab.tags in
  let ways = s.Slab.ways in
  let back, fwd = window t ~pid in
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
      let lo = Stdlib.max 0 (addr - back) and hi = addr + fwd in
      let line = if lo = hi then lo else lo + Rng.int b.rng (hi - lo + 1) in
      let lbase = set_of t line * ways in
      if Slab.scan_tag tags line lbase (lbase + ways) >= 0 then
        Kernel_sa.finish_miss_uncached g p mode k
      else begin
        let way = Policy.victim_in t.policy b.rng s ~base:lbase ~len:ways in
        if line = addr then
          Kernel_sa.finish_miss_fill s way ~pid ~addr ~seq g p mode k
        else begin
          let evictions = if Array.unsafe_get tags way >= 0 then 1 else 0 in
          Slab.fill s way ~tag:line ~owner:pid ~seq;
          Counters.cell_evictions g evictions;
          Counters.cell_evictions p evictions;
          Kernel_sa.finish_miss_uncached g p mode k
        end;
        Policy.filled t.policy s way
      end
    end
  done

let engine ?(kernel = Kernel.Auto) t =
  let access ~pid addr = access t ~pid addr in
  let access_run, run_kernel = Kernel.arch_run kernel ~name:"rf" ~access (run t) in
  {
    Engine.name = Printf.sprintf "rf-%d-way" (config t).Config.ways;
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
    set_window = (fun ~pid ~back ~fwd -> set_window t ~pid ~back ~fwd);
    counters = (fun () -> Counters.global t.b.Backing.counters);
    counters_for = (fun pid -> Counters.for_pid t.b.Backing.counters pid);
    reset_counters = (fun () -> Counters.reset t.b.Backing.counters);
    dump = (fun () -> Backing.dump t.b);
  }
