type snapshot = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;
  read_throughs : int;
  flushes : int;
}

let zero =
  { accesses = 0; hits = 0; misses = 0; evictions = 0; read_throughs = 0; flushes = 0 }

type cell = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable read_throughs : int;
  mutable flushes : int;
}

(* Per-pid cells live in a small array indexed directly by pid: every
   simulated process in the repository is a tiny non-negative int
   (victim 0, attacker 1, covert sender 2, ...), and [cell_for] runs
   once per cache access, so a generic [Hashtbl.find] — a hash plus a
   bucket probe per access — is measurable against the ~tens-of-ns
   access itself. Exotic pids spill into the overflow table. *)
let small_pids = 16

(* Only the per-pid cells are bumped per access; the global view is
   their sum plus [extra], which holds the evictions no access owns
   (flush_all, PL's locking fill). An access costs one cell write, and
   the global snapshot — read only by reports and tests — pays the
   sum. *)
type t = {
  extra : cell;
  small : cell array;  (** index = pid, for 0 <= pid < {!small_pids} *)
  overflow : (int, cell) Hashtbl.t;
}

let fresh_cell () =
  { accesses = 0; hits = 0; misses = 0; evictions = 0; read_throughs = 0; flushes = 0 }

let create () =
  {
    extra = fresh_cell ();
    small = Array.init small_pids (fun _ -> fresh_cell ());
    overflow = Hashtbl.create 8;
  }

(* [Hashtbl.find] + preallocated [Not_found] rather than [find_opt] on
   the overflow path: the option wrapper is a minor-heap allocation on
   every access and this runs on the hit fast path. *)
let cell t pid =
  if pid >= 0 && pid < small_pids then t.small.(pid)
  else
    match Hashtbl.find t.overflow pid with
    | c -> c
    | exception Not_found ->
      let c = fresh_cell () in
      Hashtbl.replace t.overflow pid c;
      c

let[@inline] cell_hit (c : cell) =
  c.accesses <- c.accesses + 1;
  c.hits <- c.hits + 1

let[@inline] cell_add (c : cell) ~miss ~read_through ~evictions =
  c.accesses <- c.accesses + 1;
  if miss then begin
    c.misses <- c.misses + 1;
    if read_through then c.read_throughs <- c.read_throughs + 1
  end
  else c.hits <- c.hits + 1;
  c.evictions <- c.evictions + evictions

(* Single match per field group; no polymorphic [=] (which compiles to a
   [caml_equal] call even on constant constructors without flambda). *)
let record t ~pid (o : Outcome.t) =
  let c = cell t pid in
  c.accesses <- c.accesses + 1;
  (match o.event with
  | Outcome.Hit -> c.hits <- c.hits + 1
  | Outcome.Miss ->
    c.misses <- c.misses + 1;
    if not o.cached then c.read_throughs <- c.read_throughs + 1);
  (match o.evicted with
  | Some _ -> c.evictions <- c.evictions + 1
  | None -> ());
  match o.also_evicted with
  | Some _ -> c.evictions <- c.evictions + 1
  | None -> ()

let record_flush t ~pid =
  let c = cell t pid in
  c.flushes <- c.flushes + 1

let record_eviction t ~count = t.extra.evictions <- t.extra.evictions + count

let snap (c : cell) : snapshot =
  {
    accesses = c.accesses;
    hits = c.hits;
    misses = c.misses;
    evictions = c.evictions;
    read_throughs = c.read_throughs;
    flushes = c.flushes;
  }

let add (s : snapshot) (c : cell) : snapshot =
  {
    accesses = s.accesses + c.accesses;
    hits = s.hits + c.hits;
    misses = s.misses + c.misses;
    evictions = s.evictions + c.evictions;
    read_throughs = s.read_throughs + c.read_throughs;
    flushes = s.flushes + c.flushes;
  }

let global t =
  Hashtbl.fold (fun _ c s -> add s c) t.overflow
    (Array.fold_left add (snap t.extra) t.small)

let for_pid t pid =
  if pid >= 0 && pid < small_pids then snap t.small.(pid)
  else
    match Hashtbl.find_opt t.overflow pid with Some c -> snap c | None -> zero

let hit_rate (s : snapshot) =
  if s.accesses = 0 then nan else float_of_int s.hits /. float_of_int s.accesses

(* [Hashtbl.iter] allocates its bucket walker, so it runs only when an
   exotic pid has a cell: an engine reset stays off the heap. *)
let reset t =
  let clear c =
    c.accesses <- 0;
    c.hits <- 0;
    c.misses <- 0;
    c.evictions <- 0;
    c.read_throughs <- 0;
    c.flushes <- 0
  in
  clear t.extra;
  Array.iter clear t.small;
  if Hashtbl.length t.overflow > 0 then
    Hashtbl.iter (fun _ c -> clear c) t.overflow
