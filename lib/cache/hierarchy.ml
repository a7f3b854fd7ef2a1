open Cachesec_stats

type t = {
  l2 : Engine.t;
  l1_config : Config.t;
  l1_policy : Policy.t;
  l1s : (int, Engine.t) Hashtbl.t;
  rng : Rng.t;
  counters : Counters.t;
}

let l2_hit_time = 0.4

let default_l1 = Config.v ~line_bytes:64 ~lines:64 ~ways:4

let create ?(l1_config = default_l1) ?(l1_policy = Policy.Random) ~l2 ~rng () =
  {
    l2;
    l1_config;
    l1_policy;
    l1s = Hashtbl.create 8;
    rng;
    counters = Counters.create ();
  }

let l2 t = t.l2

let l1_for t ~pid =
  match Hashtbl.find_opt t.l1s pid with
  | Some e -> e
  | None ->
    let e =
      Sa.engine
        (Sa.create ~config:t.l1_config ~policy:t.l1_policy ~rng:(Rng.split t.rng) ())
    in
    Hashtbl.replace t.l1s pid e;
    e

let access_timed t ~pid addr =
  let l1 = l1_for t ~pid in
  if l1.Engine.peek ~pid addr then begin
    let o = l1.Engine.access ~pid addr in
    Counters.record t.counters ~pid o;
    (o, Timing.hit_time)
  end
  else begin
    (* L1 miss: consult the shared level, then fill the L1. The uniform
       event is Hit when any level holds the line (latency below memory);
       the three-way latency carries the L1/L2 distinction. *)
    let o2 = t.l2.Engine.access ~pid addr in
    ignore (l1.Engine.access ~pid addr);
    let time =
      match o2.Outcome.event with
      | Outcome.Hit -> l2_hit_time
      | Outcome.Miss -> Timing.miss_time
    in
    Counters.record t.counters ~pid o2;
    (o2, time)
  end

let access t ~pid addr = fst (access_timed t ~pid addr)

(* clflush is coherence-wide: the line leaves every private L1 as well as
   the shared level (otherwise a victim could keep hitting a stale L1
   copy and flush-and-reload would never observe anything). *)
let flush_line t ~pid addr =
  let l1_hit =
    Hashtbl.fold
      (fun owner (l1 : Engine.t) acc -> l1.Engine.flush_line ~pid:owner addr || acc)
      t.l1s false
  in
  let l2_hit = t.l2.Engine.flush_line ~pid addr in
  if l1_hit || l2_hit then begin
    Counters.record_flush t.counters ~pid;
    true
  end
  else false

let engine t =
  {
    Engine.name = Printf.sprintf "l1+%s" t.l2.Engine.name;
    config = t.l2.Engine.config;
    sigma = t.l2.Engine.sigma;
    (* The L1s are private per-pid Sa engines created on demand; the
       hierarchy reports the shared level's path and footprint. *)
    kernel = t.l2.Engine.kernel;
    slab = t.l2.Engine.slab;
    access = (fun ~pid addr -> access t ~pid addr);
    (* The batched run must route through the hierarchy's own access
       (L1 probe + L2 fallback), not the L2's. *)
    access_run = Kernel.run_of_scalar (fun ~pid addr -> access t ~pid addr);
    run_kernel = Kernel.generic;
    peek =
      (fun ~pid addr ->
        (l1_for t ~pid).Engine.peek ~pid addr || t.l2.Engine.peek ~pid addr);
    flush_line = (fun ~pid addr -> flush_line t ~pid addr);
    flush_all =
      (fun () ->
        Hashtbl.iter (fun _ l1 -> l1.Engine.flush_all ()) t.l1s;
        t.l2.Engine.flush_all ());
    lock_line = (fun ~pid addr -> t.l2.Engine.lock_line ~pid addr);
    unlock_line = (fun ~pid addr -> t.l2.Engine.unlock_line ~pid addr);
    set_window = (fun ~pid ~back ~fwd -> t.l2.Engine.set_window ~pid ~back ~fwd);
    counters = (fun () -> Counters.global t.counters);
    counters_for = (fun pid -> Counters.for_pid t.counters pid);
    reset_counters =
      (fun () ->
        Counters.reset t.counters;
        t.l2.Engine.reset_counters ();
        Hashtbl.iter (fun _ l1 -> l1.Engine.reset_counters ()) t.l1s);
    dump = (fun () -> t.l2.Engine.dump ());
  }
