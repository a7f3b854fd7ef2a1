open Cachesec_stats

(* The CAM index maps a packed (context, logical index) key to a
   physical line. Keys are packed ints (context in the high bits), so
   probes allocate neither a tuple key nor hash a block: the polymorphic
   [Hashtbl] primitives specialise to one [caml_hash] call and an
   unboxed compare. (A [Hashtbl.Make] functor over int was measured ~30%
   slower end to end here: without flambda each bucket probe pays
   indirect closure calls for [equal]/[hash], whereas the polymorphic
   table runs them in the C runtime.) *)
type t = {
  b : Backing.t;
  cam : (int, int) Hashtbl.t;
  lbits : int;  (** bits of a logical index: [1 lsl lbits >= logical_lines] *)
  logical_lines : int;
}

let create ?(config = Config.fully_associative) ?(extra_bits = 4) ~rng () =
  if extra_bits < 0 then invalid_arg "Newcache.create: negative extra_bits";
  let logical_lines = config.Config.lines lsl extra_bits in
  let rec bits b = if 1 lsl b >= logical_lines then b else bits (b + 1) in
  {
    b = Backing.create config ~rng;
    cam = Hashtbl.create 1024;
    lbits = bits 0;
    logical_lines;
  }

let config t = t.b.Backing.cfg
let logical_lines t = t.logical_lines
let cam_key t ~pid lindex = (pid lsl t.lbits) lor lindex

(* Physical index of the valid line holding (context, logical index), or
   -1. The stored tag is the full memory-line number, which subsumes the
   logical tag addr / logical_lines. Allocation-free. *)
let cam_find t ~pid lindex =
  match Hashtbl.find t.cam (cam_key t ~pid lindex) with
  | i -> if t.b.Backing.slab.Slab.tags.(i) >= 0 then i else -1
  | exception Not_found -> -1

let cam_remove_entry_of t i =
  let s = t.b.Backing.slab in
  if s.Slab.tags.(i) >= 0 then
    Hashtbl.remove t.cam (cam_key t ~pid:s.Slab.owners.(i) s.Slab.aux.(i))

(* --- the transition ---------------------------------------------------- *)

(* One access. A hit needs context, logical index and tag to match. A
   tag miss first invalidates the index-conflicting line (keeping the
   CAM key unique); every miss then replaces a uniformly random physical
   line — the single RNG draw. *)
let[@inline] step t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  let li = addr mod t.logical_lines in
  let m = cam_find t ~pid li in
  if m >= 0 && Array.unsafe_get s.Slab.tags m = addr then begin
    Array.unsafe_set s.Slab.last_use m seq;
    Kernel.hit
  end
  else begin
    let conflict =
      if m >= 0 then begin
        cam_remove_entry_of t m;
        Kernel.also_evict b m
      end
      else 0
    in
    let way = Rng.int b.Backing.rng s.Slab.n in
    cam_remove_entry_of t way;
    let code = Kernel.fill b way ~tag:addr ~owner:pid ~seq in
    s.Slab.aux.(way) <- li;
    Hashtbl.replace t.cam (cam_key t ~pid li) way;
    code + conflict
  end

let access t ~pid addr = Kernel.record t.b ~pid (step t ~pid addr)

let run t ~pid ~trace ~pos ~len mode =
  let c = Counters.cell t.b.Backing.counters pid in
  for k = 0 to len - 1 do
    Kernel.finish t.b c mode k (step t ~pid (Array.unsafe_get trace (pos + k)))
  done

let full_match t ~pid addr =
  let i = cam_find t ~pid (addr mod t.logical_lines) in
  if i >= 0 && t.b.Backing.slab.Slab.tags.(i) = addr then i else -1

let peek t ~pid addr = full_match t ~pid addr >= 0

let flush_line t ~pid addr =
  let i = full_match t ~pid addr in
  if i >= 0 then begin
    cam_remove_entry_of t i;
    Slab.invalidate t.b.Backing.slab i;
    Counters.record_flush t.b.Backing.counters ~pid;
    true
  end
  else false

let flush_all t =
  Hashtbl.reset t.cam;
  Backing.flush_all t.b

let engine t =
  {
    Engine.name = Printf.sprintf "newcache-%d-logical" t.logical_lines;
    config = config t;
    sigma = 0.;
    slab = t.b.Backing.slab;
    access = (fun ~pid addr -> access t ~pid addr);
    access_run =
      (fun ~pid ~trace ~pos ~len mode -> run t ~pid ~trace ~pos ~len mode);
    run_kernel = "newcache";
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
