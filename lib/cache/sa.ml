type t = {
  b : Backing.t;
  policy : Policy.t;
  access : pid:int -> int -> Outcome.t;
  run : pid:int -> trace:int array -> pos:int -> len:int -> Kernel.mode -> unit;
}

(* --- the transition ---------------------------------------------------- *)

(* One access: probe the set, touch on a hit, otherwise fill the
   policy's victim. Returns the {!Kernel} step code. *)
let[@inline] step p (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  let w = s.Slab.ways in
  let base = (addr land b.Backing.set_mask) * w in
  let i = Slab.scan_tag s.Slab.tags addr base (base + w) in
  if i >= 0 then begin
    Policy.touch p s i ~seq;
    Kernel.hit
  end
  else begin
    let way = Policy.victim_in p b.Backing.rng s ~base ~len:w in
    let code = Kernel.fill b way ~tag:addr ~owner:pid ~seq in
    Policy.filled p s way;
    code
  end

(* The hit case is answered here: it is most accesses, and building its
   outcome needs no call into [Kernel]. *)
let[@inline] access p (b : Backing.t) ~pid addr =
  let code = step p b ~pid addr in
  if code = Kernel.hit then begin
    Counters.record b.Backing.counters ~pid Outcome.hit;
    Outcome.hit
  end
  else Kernel.record b ~pid code

let[@inline] run p (b : Backing.t) ~pid ~trace ~pos ~len mode =
  let c = Counters.cell b.Backing.counters pid in
  for k = 0 to len - 1 do
    Kernel.finish c mode (step p b ~pid (Array.unsafe_get trace (pos + k)))
  done

(* One instantiation per policy, each with the policy a constant so the
   inlined step carries no policy match. *)
let bind (b : Backing.t) (policy : Policy.t) =
  match policy with
  | Lru ->
    ( (fun ~pid a -> access Lru b ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Lru b ~pid ~trace ~pos ~len m )
  | Random ->
    ( (fun ~pid a -> access Random b ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Random b ~pid ~trace ~pos ~len m )
  | Fifo ->
    ( (fun ~pid a -> access Fifo b ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Fifo b ~pid ~trace ~pos ~len m )
  | Mru ->
    ( (fun ~pid a -> access Mru b ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Mru b ~pid ~trace ~pos ~len m )
  | Lfu ->
    ( (fun ~pid a -> access Lfu b ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Lfu b ~pid ~trace ~pos ~len m )
  | Mfu ->
    ( (fun ~pid a -> access Mfu b ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Mfu b ~pid ~trace ~pos ~len m )
  | Plru ->
    ( (fun ~pid a -> access Plru b ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Plru b ~pid ~trace ~pos ~len m )

let create ?(config = Config.standard) ?(policy = Policy.Random) ~rng () =
  let b = Backing.create config ~rng in
  let access, run = bind b policy in
  { b; policy; access; run }

let engine t =
  Engine.of_backing t.b
    ~name:
      (Printf.sprintf "sa-%d-way-%s" t.b.Backing.cfg.Config.ways
         (Policy.to_string t.policy))
    ~run_kernel:("sa-" ^ Policy.to_string t.policy)
    ~access:t.access ~access_run:t.run
    ~find:(fun ~pid:_ addr -> Backing.find t.b addr)
