open Cachesec_stats

type t = {
  b : Backing.t;
  policy : Policy.t;
  mutable tables : (int * int array) list;
      (** pid -> logical-to-physical sets, made on the pid's first
          access and from then on mutated only in place *)
  (* Last (pid, table) pair served by [table_of]: attack loops access in
     long same-pid runs (a 512-line prime, a 160-lookup encryption), so
     the memo turns the per-access table lookup into one int compare.
     Tables are never replaced, so it stays valid. *)
  mutable memo_pid : int;
  mutable memo_tbl : int array;
}

(* A list, not a hash table: an RP cache serves two or three pids, the
   memo answers nearly every lookup, and a reset walks the tables
   without allocating. [Not_found] is preallocated. *)
let rec find_table (pid : int) = function
  | [] -> raise Not_found
  | (p, tbl) :: rest -> if p = pid then tbl else find_table pid rest

let table_of t pid =
  if pid = t.memo_pid then t.memo_tbl
  else begin
    let tbl =
      match find_table pid t.tables with
      | tbl -> tbl
      | exception Not_found ->
        let tbl = Array.init t.b.Backing.sets Fun.id in
        t.tables <- (pid, tbl) :: t.tables;
        tbl
    in
    t.memo_pid <- pid;
    t.memo_tbl <- tbl;
    tbl
  end

let table t ~pid = Array.copy (table_of t pid)

let identity (tbl : int array) =
  for i = 0 to Array.length tbl - 1 do
    tbl.(i) <- i
  done

let set_identity t ~pid = identity (table_of t pid)

let rec identities = function
  | [] -> ()
  | (_, tbl) :: rest ->
    identity tbl;
    identities rest

(* Top-level downward scan (all state as arguments): the table is a
   bijection, so first-from-the-end = last-from-the-start, without
   allocating an iteri closure per external miss. *)
let rec last_mapped (tbl : int array) target i =
  if i < 0 then -1
  else if tbl.(i) = target then i
  else last_mapped tbl target (i - 1)

(* Exchange the mappings of [logical] and of the logical index currently
   mapped to [target], keeping the table a bijection. *)
let swap_mapping (tbl : int array) ~logical ~target =
  let other =
    match last_mapped tbl target (Array.length tbl - 1) with
    | -1 -> logical
    | i -> i
  in
  let tmp = tbl.(logical) in
  tbl.(logical) <- tbl.(other);
  tbl.(other) <- tmp

(* --- the transition ---------------------------------------------------- *)

(* The policy hooks, written out here as in [Sa] (the dev build
   compiles every module -opaque, so a hook in another module never
   inlines and its policy match never folds): [Policy.victim_in] /
   [touch] / [filled] on one whole set. *)
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

(* One access by [pid], whose permutation table is [tbl]. The PID
   feature: the tag array conceptually stores the owning context, so
   the probe requires the owner to match too. A miss whose victim way is
   invalid or the accessor's own replaces it in place (internal miss);
   otherwise (external miss) it fills a random line of a random set and
   swaps the accessor's mappings. RNG draws: the policy's victim draw,
   then set and way on an external miss. *)
let[@inline] step p (b : Backing.t) tbl ~pid addr =
  let s = b.Backing.slab in
  let seq = b.Backing.seq + 1 in
  b.Backing.seq <- seq;
  let logical = addr land b.Backing.set_mask in
  let w = s.Slab.ways in
  let set = Array.unsafe_get tbl logical in
  let base = set * w in
  let stop = base + w in
  let i = Slab.scan_tag_owned s.Slab.tags s.Slab.owners addr pid base stop in
  if i >= 0 then begin
    touch p s i ~seq;
    Kernel.hit
  end
  else begin
    let way = victim p b.Backing.rng s ~set ~base ~stop in
    let internal =
      Array.unsafe_get s.Slab.tags way < 0
      || Array.unsafe_get s.Slab.owners way = pid
    in
    let target = if internal then -1 else Rng.int b.Backing.rng b.Backing.sets in
    let way = if internal then way else (target * w) + Rng.int b.Backing.rng w in
    let code = Kernel.fill b way ~tag:addr ~owner:pid ~seq in
    filled p s way;
    if not internal then swap_mapping tbl ~logical ~target;
    code
  end

(* The hit case is answered here, as in SA's [access]. *)
let[@inline] access p t ~pid addr =
  let code = step p t.b (table_of t pid) ~pid addr in
  if code = Kernel.hit then begin
    Counters.record t.b.Backing.counters ~pid Outcome.hit;
    Outcome.hit
  end
  else Kernel.record t.b ~pid code

(* The table is hoisted once per run: a pid's table is only ever
   mutated in place, never replaced. *)
let[@inline] run p t ~pid ~trace ~pos ~len mode =
  let b = t.b in
  let tbl = table_of t pid in
  let c = Counters.cell b.Backing.counters pid in
  for k = 0 to len - 1 do
    Kernel.finish b c mode k (step p b tbl ~pid (Array.unsafe_get trace (pos + k)))
  done

(* One instantiation per policy, each with the policy a constant so the
   inlined step carries no policy match. *)
let bind t =
  match t.policy with
  | Lru ->
    ( (fun ~pid a -> access Lru t ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Lru t ~pid ~trace ~pos ~len m )
  | Random ->
    ( (fun ~pid a -> access Random t ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Random t ~pid ~trace ~pos ~len m )
  | Fifo ->
    ( (fun ~pid a -> access Fifo t ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Fifo t ~pid ~trace ~pos ~len m )
  | Mru ->
    ( (fun ~pid a -> access Mru t ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Mru t ~pid ~trace ~pos ~len m )
  | Lfu ->
    ( (fun ~pid a -> access Lfu t ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Lfu t ~pid ~trace ~pos ~len m )
  | Mfu ->
    ( (fun ~pid a -> access Mfu t ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Mfu t ~pid ~trace ~pos ~len m )
  | Plru ->
    ( (fun ~pid a -> access Plru t ~pid a),
      fun ~pid ~trace ~pos ~len m -> run Plru t ~pid ~trace ~pos ~len m )

let create ?(config = Config.standard) ?(policy = Policy.Random) ~rng () =
  {
    b = Backing.create config ~rng;
    policy;
    tables = [];
    memo_pid = min_int;
    memo_tbl = [||];
  }

(* The PID feature: a pid finds only the lines it filled, through its
   own table. *)
let find t ~pid addr =
  Backing.find_tag_owned t.b
    ~set:(table_of t pid).(Backing.set_of t.b addr)
    ~tag:addr ~owner:pid

(* A pid's table as made is the identity, and a made table answers
   exactly as one made on demand would, so rewriting every table in
   place restores the built state. *)
let reset t ~rng =
  Backing.reset t.b ~rng;
  identities t.tables

let engine t =
  let access, access_run = bind t in
  {
    (Engine.of_backing t.b
       ~name:(Printf.sprintf "rp-%d-way" t.b.Backing.cfg.Config.ways)
       ~run_kernel:("rp-" ^ Policy.to_string t.policy)
       ~access ~access_run ~find:(find t))
    with
    Engine.reset = reset t;
  }
