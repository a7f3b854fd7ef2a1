open Cachesec_stats

type t = {
  b : Backing.t;
  policy : Policy.t;
  access : pid:int -> int -> Outcome.t;
  run : pid:int -> trace:int array -> pos:int -> len:int -> Kernel.mode -> unit;
}

(* --- the transition ---------------------------------------------------- *)

(* The policy hooks of the step, written out here rather than called in
   [Policy]: the default (dev) build compiles every module with
   -opaque, so nothing inlines across modules, and the policy match
   only folds away when it is inlined into an instantiation with a
   constant policy. Semantics are [Policy.victim_in]/[touch]/[filled]
   on a whole set. *)
let[@inline] victim p rng (s : Slab.t) ~set ~base ~stop =
  let inv = Slab.scan_invalid s.Slab.tags base stop in
  if inv >= 0 then inv
  else
    let w = s.Slab.ways and lu = s.Slab.last_use and fq = s.Slab.freq in
    match (p : Policy.t) with
    | Lru -> Slab.scan_min lu (base + 1) stop base (Array.unsafe_get lu base)
    | Fifo ->
      let fs = s.Slab.fill_seq in
      Slab.scan_min fs (base + 1) stop base (Array.unsafe_get fs base)
    | Random -> base + Rng.int rng w
    | Mru -> Slab.scan_max lu (base + 1) stop base (Array.unsafe_get lu base)
    | Lfu -> Slab.scan_min fq (base + 1) stop base (Array.unsafe_get fq base)
    | Mfu -> Slab.scan_max fq (base + 1) stop base (Array.unsafe_get fq base)
    | Plru ->
      if Policy.plru_tree_capable w then
        base + Policy.plru_walk (Array.unsafe_get s.Slab.tree set) w 1
      else Slab.scan_min lu (base + 1) stop base (Array.unsafe_get lu base)

let[@inline] touch p (s : Slab.t) i ~seq =
  Array.unsafe_set s.Slab.last_use i seq;
  match (p : Policy.t) with
  | Lfu | Mfu ->
    Array.unsafe_set s.Slab.freq i (Array.unsafe_get s.Slab.freq i + 1)
  | Plru -> Policy.plru_touch s i
  | Lru | Random | Fifo | Mru -> ()

let[@inline] filled p (s : Slab.t) way =
  match (p : Policy.t) with
  | Plru -> Policy.plru_touch s way
  | Lru | Random | Fifo | Mru | Lfu | Mfu -> ()

(* One access: probe the set, touch on a hit, otherwise fill the
   policy's victim. Returns the {!Kernel} step code. *)
let[@inline] step p (b : Backing.t) ~pid addr =
  let s = b.Backing.slab in
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  let set = addr land b.Backing.set_mask in
  let base = set * s.Slab.ways in
  let stop = base + s.Slab.ways in
  let i = Slab.scan_tag s.Slab.tags addr base stop in
  if i >= 0 then begin
    touch p s i ~seq;
    Kernel.hit
  end
  else begin
    let way = victim p b.Backing.rng s ~set ~base ~stop in
    let code = Kernel.fill b way ~tag:addr ~owner:pid ~seq in
    filled p s way;
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
    Kernel.finish b c mode k (step p b ~pid (Array.unsafe_get trace (pos + k)))
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
