open Cachesec_stats

(* The CAM index (packed (context, logical index) key -> physical line)
   lives in [Kernel_newcache.cam] so the monomorphized kernel and this
   generic path share the one table; see that module for the packed-key
   rationale. *)
type t = { b : Backing.t; cam : Kernel_newcache.cam }

let create ?(config = Config.fully_associative) ?(extra_bits = 4) ~rng () =
  if extra_bits < 0 then invalid_arg "Newcache.create: negative extra_bits";
  {
    b = Backing.create config ~rng;
    cam = Kernel_newcache.create_cam ~logical_lines:(config.Config.lines lsl extra_bits);
  }

let config t = t.b.Backing.cfg
let logical_lines t = t.cam.Kernel_newcache.logical_lines
let lindex t addr = addr mod logical_lines t
(* The stored tag is the full memory-line number, which subsumes the
   logical tag addr / logical_lines. *)

let cam_find t ~pid ~lindex =
  Kernel_newcache.cam_find t.cam t.b.Backing.slab ~pid ~lindex

let full_match t ~pid addr =
  let i = cam_find t ~pid ~lindex:(lindex t addr) in
  if i >= 0 && t.b.Backing.slab.Slab.tags.(i) = addr then i else -1

let access t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = Backing.tick b in
  let li = lindex t addr in
  let m = cam_find t ~pid ~lindex:li in
  let outcome =
    if m >= 0 && s.Slab.tags.(m) = addr then begin
      Slab.touch s m ~seq;
      Outcome.hit
    end
    else begin
      (* Tag miss: clear the index-conflicting line (the [m >= 0] case)
         to keep the (context, index) CAM key unique. *)
      let conflict_evicted =
        if m >= 0 then begin
          let victim = Slab.victim s m in
          Kernel_newcache.cam_remove_entry_of t.cam s m;
          Slab.invalidate s m;
          victim
        end
        else None
      in
      let way = Rng.int b.rng s.Slab.n in
      let evicted = Slab.victim s way in
      Kernel_newcache.cam_remove_entry_of t.cam s way;
      Slab.fill s way ~tag:addr ~owner:pid ~seq;
      s.Slab.aux.(way) <- li;
      Hashtbl.replace t.cam.Kernel_newcache.table
        (Kernel_newcache.cam_key t.cam ~pid li)
        way;
      {
        Outcome.event = Miss;
        cached = true;
        fetched = Some addr;
        evicted;
        also_evicted = conflict_evicted;
      }
    end
  in
  Counters.record b.counters ~pid outcome;
  outcome

let peek t ~pid addr = full_match t ~pid addr >= 0

let flush_line t ~pid addr =
  let i = full_match t ~pid addr in
  if i >= 0 then begin
    Kernel_newcache.cam_remove_entry_of t.cam t.b.Backing.slab i;
    Slab.invalidate t.b.Backing.slab i;
    Counters.record_flush t.b.Backing.counters ~pid;
    true
  end
  else false

let flush_all t =
  Hashtbl.reset t.cam.Kernel_newcache.table;
  Backing.flush_all t.b

let engine ?(kernel = Kernel.Auto) t =
  let generic ~pid addr = access t ~pid addr in
  let access, run, kernel_name, run_name =
    match kernel with
    | Kernel.Generic ->
      (generic, Kernel.run_of_scalar generic, Kernel.generic, Kernel.generic)
    | Kernel.Auto ->
      ( Kernel_newcache.access t.cam t.b,
        Kernel_newcache.run t.cam t.b,
        "newcache",
        "newcache" )
    | Kernel.Scalar ->
      let a = Kernel_newcache.access t.cam t.b in
      (a, Kernel.run_of_scalar a, "newcache", Kernel.scalar)
  in
  {
    Engine.name = Printf.sprintf "newcache-%d-logical" (logical_lines t);
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
