type t = { b : Backing.t; policy : Policy.t }

let create ?(config = Config.standard) ?(policy = Policy.Random) ~rng () =
  { b = Backing.create config ~rng; policy }


(* --- the transition ---------------------------------------------------- *)

(* One access: the SA transition with one extra check on the miss path.
   A locked victim (locked implies valid: [Slab.fill] and
   [Slab.invalidate] both clear the bit) is served read-through — no
   fill, so no [Policy.filled] either (paper Section 2.2.1). *)
let[@inline] step t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  let w = s.Slab.ways in
  let base = (addr land b.Backing.set_mask) * w in
  let i = Slab.scan_tag s.Slab.tags addr base (base + w) in
  if i >= 0 then begin
    Policy.touch t.policy s i ~seq;
    Kernel.hit
  end
  else begin
    let way = Policy.victim_in t.policy b.Backing.rng s ~base ~len:w in
    if Array.unsafe_get s.Slab.locked way = 1 then Kernel.read_through
    else begin
      let code = Kernel.fill b way ~tag:addr ~owner:pid ~seq in
      Policy.filled t.policy s way;
      code
    end
  end

let access t ~pid addr = Kernel.record t.b ~pid (step t ~pid addr)

let run t ~pid ~trace ~pos ~len mode =
  let c = Counters.cell t.b.Backing.counters pid in
  for k = 0 to len - 1 do
    Kernel.finish c mode (step t ~pid (Array.unsafe_get trace (pos + k)))
  done

(* Cold path: locking may need the victim choice restricted to the
   unlocked (non-contiguous) ways, so it keeps the list form. *)
let lock_line t ~pid addr =
  let b = t.b in
  let s = b.Backing.slab in
  let i = Backing.find b addr in
  if i >= 0 then begin
    Slab.set_locked s i true;
    s.Slab.owners.(i) <- pid;
    true
  end
  else begin
    let seq = Backing.tick b in
    let unlocked =
      List.filter
        (fun i -> not (Slab.locked s i))
        (Backing.ways_of_set b ~set:(Backing.set_of b addr))
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
  let i = Backing.find t.b addr in
  if i >= 0 && Slab.locked s i && s.Slab.owners.(i) = pid then begin
    Slab.set_locked s i false;
    true
  end
  else false

let locked_lines t =
  Slab.dump t.b.Backing.slab
  |> List.filter_map (fun (_, (l : Line.t)) -> if l.locked then Some l.tag else None)
  |> List.sort Int.compare

(* A line locked by another pid cannot be flushed, as it cannot be
   evicted. *)
let flush_line t ~pid addr =
  let s = t.b.Backing.slab in
  let i = Backing.find t.b addr in
  if i >= 0 && Slab.locked s i && s.Slab.owners.(i) <> pid then false
  else Backing.flush t.b ~pid i

let engine t =
  {
    (Engine.of_backing t.b
       ~name:(Printf.sprintf "pl-%d-way" t.b.Backing.cfg.Config.ways)
       ~run_kernel:"pl"
       ~access:(fun ~pid addr -> access t ~pid addr)
       ~access_run:(fun ~pid ~trace ~pos ~len mode ->
         run t ~pid ~trace ~pos ~len mode)
       ~find:(fun ~pid:_ addr -> Backing.find t.b addr))
    with
    Engine.flush_line = flush_line t;
    lock_line = lock_line t;
    unlock_line = unlock_line t;
  }
