(* A deliberately naive reference model of the nine cache architectures,
   written from the per-architecture transition table in
   docs/ARCHITECTURE.md and sharing no code with the production engines:
   every set is an array of line records, victims are picked by scanning
   a candidate list, and each architecture's access is one function
   below. It exists to be obviously right, not fast; the differential
   fuzz in test_kernels.ml drives it next to the production engine built
   from the same spec and RNG state and demands identical outcomes,
   counters and line dumps. *)

open Cachesec_stats
open Cachesec_cache

type line = {
  mutable valid : bool;
  mutable tag : int;
  mutable owner : int;
  mutable locked : bool;
  mutable last_use : int;
  mutable fill_seq : int;
  mutable uses : int;  (** accesses since the fill, the fill included *)
  mutable lindex : int;  (** Newcache logical index; 0 elsewhere *)
}

type replacement = Lru | Random | Fifo | Mru | Lfu | Mfu | Plru

type arch =
  | Sa
  | Sp of { per : int }  (** sets per partition *)
  | Pl
  | Nomo of { reserved : int }
  | Newcache of { logical : int }
  | Rp of { perms : (int, int array) Hashtbl.t }
  | Rf of { windows : (int, int * int) Hashtbl.t }
  | Re of { interval : int; mutable since : int }

type counts = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable read_throughs : int;
  mutable flushes : int;
}

type t = {
  arch : arch;
  policy : replacement;
  ways : int;
  sets : line array array;  (** [sets.(s).(w)] is physical line [s * ways + w] *)
  trees : bool array array;  (** tree-PLRU node bits per set, heap-numbered from 1 *)
  rng : Rng.t;
  mutable seq : int;
  victim_pid : int;
  victim_lines : (int * int) list;
  global : counts;
  per_pid : (int, counts) Hashtbl.t;
}

let zero () =
  { accesses = 0; hits = 0; misses = 0; evictions = 0; read_throughs = 0; flushes = 0 }

let blank () =
  {
    valid = false;
    tag = 0;
    owner = -1;
    locked = false;
    last_use = 0;
    fill_seq = 0;
    uses = 0;
    lindex = 0;
  }

(* The spec's policy as this model's own variant (Newcache has none; its
   replacement is always random). *)
let replacement spec =
  match Spec.policy_of spec with
  | None -> Random
  | Some Lru -> Lru
  | Some Random -> Random
  | Some Fifo -> Fifo
  | Some Mru -> Mru
  | Some Lfu -> Lfu
  | Some Mfu -> Mfu
  | Some Plru -> Plru

let create ?(config = Config.standard) spec ~victim_pid ~victim_lines ~rng =
  let lines = config.Config.lines in
  let ways, arch =
    match spec with
    | Spec.Sa { ways; _ } | Spec.Noisy { ways; _ } -> (ways, Sa)
    | Spec.Sp { ways; partitions; _ } -> (ways, Sp { per = lines / ways / partitions })
    | Spec.Pl { ways; _ } -> (ways, Pl)
    | Spec.Nomo { ways; reserved; _ } -> (ways, Nomo { reserved })
    | Spec.Newcache { extra_bits } ->
      (lines, Newcache { logical = lines lsl extra_bits })
    | Spec.Rp { ways; _ } -> (ways, Rp { perms = Hashtbl.create 4 })
    | Spec.Rf { ways; back; fwd; _ } ->
      let windows = Hashtbl.create 4 in
      Hashtbl.replace windows victim_pid (back, fwd);
      (ways, Rf { windows })
    | Spec.Re { ways; interval; _ } -> (ways, Re { interval; since = 0 })
  in
  let nsets = lines / ways in
  {
    arch;
    policy = replacement spec;
    ways;
    sets = Array.init nsets (fun _ -> Array.init ways (fun _ -> blank ()));
    trees = Array.init nsets (fun _ -> Array.make ways false);
    rng;
    seq = 0;
    victim_pid;
    victim_lines;
    global = zero ();
    per_pid = Hashtbl.create 4;
  }

let nsets t = Array.length t.sets

let counts_for t pid =
  match Hashtbl.find_opt t.per_pid pid with
  | Some c -> c
  | None ->
    let c = zero () in
    Hashtbl.replace t.per_pid pid c;
    c

let record t ~pid (o : Outcome.t) =
  List.iter
    (fun c ->
      c.accesses <- c.accesses + 1;
      (match o.Outcome.event with
      | Outcome.Hit -> c.hits <- c.hits + 1
      | Outcome.Miss ->
        c.misses <- c.misses + 1;
        if not o.Outcome.cached then c.read_throughs <- c.read_throughs + 1);
      c.evictions <- c.evictions + List.length (Outcome.evictions o))
    [ t.global; counts_for t pid ]

let tick t =
  t.seq <- t.seq + 1;
  t.seq

(* --- tree-PLRU --------------------------------------------------------- *)

(* A power-of-two set of at least two ways carries a binary tree: node 1
   is the root, node k has children 2k and 2k+1, the leaves are nodes
   ways .. 2*ways-1 (way w = node ways + w), and a set bit points right. *)
let tree_capable t = t.ways > 1 && t.ways land (t.ways - 1) = 0

let plru_touch t s w =
  if tree_capable t then begin
    let node = ref (t.ways + w) in
    while !node > 1 do
      let parent = !node / 2 in
      (* point the parent at the other child *)
      t.trees.(s).(parent) <- !node mod 2 = 0;
      node := parent
    done
  end

let plru_walk t s =
  let node = ref 1 in
  while !node < t.ways do
    node := (2 * !node) + if t.trees.(s).(!node) then 1 else 0
  done;
  !node - t.ways

(* --- line transitions -------------------------------------------------- *)

let displaced l = if l.valid then Some (l.owner, l.tag) else None

let invalidate l =
  l.valid <- false;
  l.owner <- -1;
  l.locked <- false;
  l.uses <- 0;
  l.lindex <- 0

(* Hit bookkeeping: the last-use clock always, the use count under the
   frequency policies, the tree under PLRU. *)
let touch t s w ~seq =
  let l = t.sets.(s).(w) in
  l.last_use <- seq;
  match t.policy with
  | Lfu | Mfu -> l.uses <- l.uses + 1
  | Plru -> plru_touch t s w
  | Lru | Random | Fifo | Mru -> ()

(* Install [tag] at way [w] of set [s]; returns the line it displaced. *)
let fill t s w ~tag ~owner ~seq =
  let l = t.sets.(s).(w) in
  let old = displaced l in
  l.valid <- true;
  l.tag <- tag;
  l.owner <- owner;
  l.locked <- false;
  l.last_use <- seq;
  l.fill_seq <- seq;
  l.uses <- 1;
  l.lindex <- 0;
  if t.policy = Plru then plru_touch t s w;
  old

(* The replacement victim among [cands] (ways of set [s], in order): the
   first invalid candidate, else by policy, ties to the first candidate.
   The PLRU tree decides only when [tree] holds (the candidates are the
   whole set); otherwise PLRU picks in LRU order. *)
let choose ?(tree = true) t s cands =
  let set = t.sets.(s) in
  let best better =
    List.fold_left
      (fun b w -> if better set.(w) set.(b) then w else b)
      (List.hd cands) (List.tl cands)
  in
  match List.find_opt (fun w -> not set.(w).valid) cands with
  | Some w -> w
  | None -> (
    match t.policy with
    | Random -> List.nth cands (Rng.int t.rng (List.length cands))
    | Lru -> best (fun a b -> a.last_use < b.last_use)
    | Fifo -> best (fun a b -> a.fill_seq < b.fill_seq)
    | Mru -> best (fun a b -> a.last_use > b.last_use)
    | Lfu -> best (fun a b -> a.uses < b.uses)
    | Mfu -> best (fun a b -> a.uses > b.uses)
    | Plru ->
      if tree && tree_capable t then plru_walk t s
      else best (fun a b -> a.last_use < b.last_use))

let all_ways t = List.init t.ways Fun.id

let find t s pred =
  let found = ref None in
  Array.iteri
    (fun w l -> if !found = None && l.valid && pred l then found := Some w)
    t.sets.(s);
  !found

let holding t s addr = find t s (fun l -> l.tag = addr)
let miss_fill ~fetched evicted = Outcome.fill ~fetched ~evicted

(* --- one function per architecture ------------------------------------- *)

(* SA (and Noisy): probe the set, fill the policy's victim on a miss. *)
let sa_access t ~pid addr =
  let seq = tick t in
  let s = addr mod nsets t in
  match holding t s addr with
  | Some w ->
    touch t s w ~seq;
    Outcome.hit
  | None ->
    let w = choose t s (all_ways t) in
    miss_fill ~fetched:addr (fill t s w ~tag:addr ~owner:pid ~seq)

let home t addr =
  if List.exists (fun (lo, hi) -> addr >= lo && addr <= hi) t.victim_lines then 0
  else 1

let sp_set t ~per addr = (home t addr * per) + (addr mod per)

(* SP: the line's home partition fixes its set; only a pid of that
   partition may fill it, anyone else misses read-through. *)
let sp_access t ~per ~pid addr =
  let seq = tick t in
  let s = sp_set t ~per addr in
  match holding t s addr with
  | Some w ->
    touch t s w ~seq;
    Outcome.hit
  | None ->
    let own = if pid = t.victim_pid then 0 else 1 in
    if own <> home t addr then Outcome.miss_uncached
    else
      let w = choose t s (all_ways t) in
      miss_fill ~fetched:addr (fill t s w ~tag:addr ~owner:pid ~seq)

(* PL: a locked victim is served read-through instead of displaced. *)
let pl_access t ~pid addr =
  let seq = tick t in
  let s = addr mod nsets t in
  match holding t s addr with
  | Some w ->
    touch t s w ~seq;
    Outcome.hit
  | None ->
    let w = choose t s (all_ways t) in
    if t.sets.(s).(w).locked then Outcome.miss_uncached
    else miss_fill ~fetched:addr (fill t s w ~tag:addr ~owner:pid ~seq)

(* Nomo: the victim's pid fills the first [reserved] ways while it holds
   fewer than [reserved] lines of the set; every other fill goes to the
   remaining ways. *)
let nomo_access t ~reserved ~pid addr =
  let seq = tick t in
  let s = addr mod nsets t in
  match holding t s addr with
  | Some w ->
    touch t s w ~seq;
    Outcome.hit
  | None ->
    let owned =
      Array.fold_left
        (fun n l -> if l.valid && l.owner = pid then n + 1 else n)
        0 t.sets.(s)
    in
    let cands =
      if pid = t.victim_pid && owned < reserved then List.init reserved Fun.id
      else List.init (t.ways - reserved) (fun i -> reserved + i)
    in
    if cands = [] then Outcome.miss_uncached
    else
      let w = choose ~tree:(List.length cands = t.ways) t s cands in
      miss_fill ~fetched:addr (fill t s w ~tag:addr ~owner:pid ~seq)

(* Newcache: one fully associative set. A line matches on (pid, logical
   index); a hit also needs the tag. A tag miss invalidates the matching
   line; every miss fills a uniformly random line. *)
let newcache_access t ~logical ~pid addr =
  let seq = tick t in
  let li = addr mod logical in
  match find t 0 (fun l -> l.owner = pid && l.lindex = li) with
  | Some w when t.sets.(0).(w).tag = addr ->
    t.sets.(0).(w).last_use <- seq;
    Outcome.hit
  | m ->
    let conflict =
      match m with
      | Some w ->
        let l = t.sets.(0).(w) in
        let old = displaced l in
        invalidate l;
        old
      | None -> None
    in
    let w = Rng.int t.rng t.ways in
    let evicted = fill t 0 w ~tag:addr ~owner:pid ~seq in
    t.sets.(0).(w).lindex <- li;
    { (miss_fill ~fetched:addr evicted) with Outcome.also_evicted = conflict }

let perm t ~perms pid =
  match Hashtbl.find_opt perms pid with
  | Some p -> p
  | None ->
    let p = Array.init (nsets t) Fun.id in
    Hashtbl.replace perms pid p;
    p

let rp_owned t ~perms ~pid addr =
  let s = (perm t ~perms pid).(addr mod nsets t) in
  (s, find t s (fun l -> l.tag = addr && l.owner = pid))

(* RP: each pid reaches sets through its own permutation and hits only
   its own lines. A miss whose victim is another pid's line fills a
   random line of a random set instead and swaps the pid's mappings of
   the two sets. *)
let rp_access t ~perms ~pid addr =
  let seq = tick t in
  let s, hit = rp_owned t ~perms ~pid addr in
  match hit with
  | Some w ->
    touch t s w ~seq;
    Outcome.hit
  | None ->
    let w = choose t s (all_ways t) in
    let l = t.sets.(s).(w) in
    if (not l.valid) || l.owner = pid then
      miss_fill ~fetched:addr (fill t s w ~tag:addr ~owner:pid ~seq)
    else begin
      let s' = Rng.int t.rng (nsets t) in
      let w' = Rng.int t.rng t.ways in
      let evicted = fill t s' w' ~tag:addr ~owner:pid ~seq in
      let p = perm t ~perms pid in
      let logical = addr mod nsets t in
      let other = ref logical in
      Array.iteri (fun i x -> if x = s' then other := i) p;
      let tmp = p.(logical) in
      p.(logical) <- p.(!other);
      p.(!other) <- tmp;
      miss_fill ~fetched:addr evicted
    end

(* RF: a miss fetches a random line of the pid's window around the
   address (no draw when the window is empty) — read-through when that
   line is already cached. *)
let rf_access t ~windows ~pid addr =
  let seq = tick t in
  let s = addr mod nsets t in
  match holding t s addr with
  | Some w ->
    touch t s w ~seq;
    Outcome.hit
  | None -> (
    let back, fwd =
      Option.value (Hashtbl.find_opt windows pid) ~default:(0, 0)
    in
    let lo = max 0 (addr - back) and hi = addr + fwd in
    let line = if lo = hi then lo else lo + Rng.int t.rng (hi - lo + 1) in
    let ls = line mod nsets t in
    match holding t ls line with
    | Some _ -> Outcome.miss_uncached
    | None ->
      let w = choose t ls (all_ways t) in
      let evicted = fill t ls w ~tag:line ~owner:pid ~seq in
      {
        Outcome.event = Outcome.Miss;
        cached = line = addr;
        fetched = Some line;
        evicted;
        also_evicted = None;
      })

(* RE: the SA access, then every [interval]-th access evicts a uniformly
   random physical line. *)
let re_access t ~re ~pid addr =
  let o = sa_access t ~pid addr in
  match re with
  | Re r ->
    r.since <- r.since + 1;
    if r.since < r.interval then o
    else begin
      r.since <- 0;
      let i = Rng.int t.rng (nsets t * t.ways) in
      let l = t.sets.(i / t.ways).(i mod t.ways) in
      match displaced l with
      | None -> o
      | Some _ as v ->
        invalidate l;
        { o with Outcome.also_evicted = v }
    end
  | _ -> o

let access t ~pid addr =
  let o =
    match t.arch with
    | Sa -> sa_access t ~pid addr
    | Sp { per } -> sp_access t ~per ~pid addr
    | Pl -> pl_access t ~pid addr
    | Nomo { reserved } -> nomo_access t ~reserved ~pid addr
    | Newcache { logical } -> newcache_access t ~logical ~pid addr
    | Rp { perms } -> rp_access t ~perms ~pid addr
    | Rf { windows } -> rf_access t ~windows ~pid addr
    | Re _ as re -> re_access t ~re ~pid addr
  in
  record t ~pid o;
  o

(* --- the other operations ---------------------------------------------- *)

(* Where [pid] could hit on [addr]: (set, way), if anywhere. *)
let lookup t ~pid addr =
  let any s = Option.map (fun w -> (s, w)) (holding t s addr) in
  match t.arch with
  | Sa | Pl | Nomo _ | Rf _ | Re _ -> any (addr mod nsets t)
  | Sp { per } -> any (sp_set t ~per addr)
  | Rp { perms } ->
    let s, w = rp_owned t ~perms ~pid addr in
    Option.map (fun w -> (s, w)) w
  | Newcache { logical } ->
    Option.map
      (fun w -> (0, w))
      (find t 0 (fun l ->
           l.owner = pid && l.lindex = addr mod logical && l.tag = addr))

let peek t ~pid addr = lookup t ~pid addr <> None

(* Removes the line; PL refuses to remove another pid's locked line. *)
let flush_line t ~pid addr =
  match lookup t ~pid addr with
  | Some (s, w) ->
    let l = t.sets.(s).(w) in
    if l.locked && l.owner <> pid then false
    else begin
      invalidate l;
      t.global.flushes <- t.global.flushes + 1;
      let c = counts_for t pid in
      c.flushes <- c.flushes + 1;
      true
    end
  | None -> false

let flush_all t =
  Array.iteri
    (fun s set ->
      Array.iter
        (fun l ->
          if l.valid then t.global.evictions <- t.global.evictions + 1;
          invalidate l)
        set;
      Array.fill t.trees.(s) 0 t.ways false)
    t.sets

(* PL only: protect a cached line (taking it over), or fetch it into an
   unlocked way — the first invalid one, else by policy in LRU order
   under PLRU — and protect it. The fetch ticks the access clock. *)
let lock_line t ~pid addr =
  match t.arch with
  | Pl -> (
    let s = addr mod nsets t in
    match holding t s addr with
    | Some w ->
      let l = t.sets.(s).(w) in
      l.locked <- true;
      l.owner <- pid;
      true
    | None -> (
      let seq = tick t in
      match List.filter (fun w -> not t.sets.(s).(w).locked) (all_ways t) with
      | [] -> false
      | cands ->
        let w = choose ~tree:false t s cands in
        (match fill t s w ~tag:addr ~owner:pid ~seq with
        | Some _ -> t.global.evictions <- t.global.evictions + 1
        | None -> ());
        t.sets.(s).(w).locked <- true;
        true))
  | _ -> false

let unlock_line t ~pid addr =
  match t.arch with
  | Pl -> (
    match holding t (addr mod nsets t) addr with
    | Some w ->
      let l = t.sets.(addr mod nsets t).(w) in
      if l.locked && l.owner = pid then begin
        l.locked <- false;
        true
      end
      else false
    | None -> false)
  | _ -> false

let set_window t ~pid ~back ~fwd =
  match t.arch with
  | Rf { windows } -> Hashtbl.replace windows pid (back, fwd)
  | _ -> ()

let counts t = t.global
let counts_for_pid t pid = Option.value (Hashtbl.find_opt t.per_pid pid) ~default:(zero ())

(* Valid lines with their physical index, as [Line.t] views. *)
let dump t =
  List.concat
    (List.mapi
       (fun s set ->
         List.filter_map
           (fun (w, l) ->
             if not l.valid then None
             else
               Some
                 ( (s * t.ways) + w,
                   {
                     Line.valid = true;
                     tag = l.tag;
                     owner = l.owner;
                     locked = l.locked;
                     last_use = l.last_use;
                     fill_seq = l.fill_seq;
                     aux = l.lindex;
                   } ))
           (List.mapi (fun w l -> (w, l)) (Array.to_list set)))
       (Array.to_list t.sets))
