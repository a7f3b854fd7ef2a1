open Cachesec_stats

(* The one place that knows every replacement policy. Engines, the
   factory, the CLI and the serve protocol all consume this registry;
   the only other copies of the hooks are the inlined ones [Sa] and [Rp]
   specialise their steps with (see policy.mli). *)

type t = Lru | Random | Fifo | Mru | Lfu | Mfu | Plru

let all = [ Lru; Random; Fifo; Mru; Lfu; Mfu; Plru ]
let count = 7

let id = function
  | Lru -> 0
  | Random -> 1
  | Fifo -> 2
  | Mru -> 3
  | Lfu -> 4
  | Mfu -> 5
  | Plru -> 6

let to_string = function
  | Lru -> "lru"
  | Random -> "random"
  | Fifo -> "fifo"
  | Mru -> "mru"
  | Lfu -> "lfu"
  | Mfu -> "mfu"
  | Plru -> "plru"

let of_string = function
  | "lru" -> Some Lru
  | "random" -> Some Random
  | "fifo" -> Some Fifo
  | "mru" -> Some Mru
  | "lfu" -> Some Lfu
  | "mfu" -> Some Mfu
  | "plru" -> Some Plru
  | _ -> None

let names = String.concat "|" (List.map to_string all)

(* --- state-needs descriptor ----------------------------------------- *)

type needs = {
  last_use : bool;
  fill_seq : bool;
  freq : bool;
  tree : bool;
  rng : bool;
}

let no_needs =
  { last_use = false; fill_seq = false; freq = false; tree = false; rng = false }

let needs = function
  | Lru | Mru -> { no_needs with last_use = true }
  | Random -> { no_needs with rng = true }
  | Fifo -> { no_needs with fill_seq = true }
  | Lfu | Mfu -> { no_needs with freq = true }
  | Plru -> { no_needs with tree = true }

(* --- tree-PLRU ------------------------------------------------------- *)

(* Per-set (ways - 1)-bit word in [Slab.tree], heap-numbered: node 1 is
   the root, node [k] has children [2k]/[2k+1], bit [k] = 1 points at
   the right subtree. The victim walk follows the bits root-to-leaf; a
   touch walks leaf-to-root flipping every ancestor to point away from
   the touched way — on every hit and every fill, so one access
   protects its line from the next (ways - 1) victim walks.

   The tree path requires the candidate range to be one whole
   set-aligned set with a power-of-two way count (the only shape the
   heap covers). Any other range — Nomo's reserved/shared slices, PL's
   unlocked-way lists, a non-power-of-two geometry — deterministically
   falls back to LRU order, and {!plru_touch} is then a no-op, so the
   fallback engines behave exactly like LRU (documented in the .mli and
   relied on by the Nomo pre-PAS composition). *)

let[@inline] plru_tree_capable ways = ways > 1 && ways land (ways - 1) = 0

let rec plru_walk tree ways node =
  if node >= ways then node - ways
  else plru_walk tree ways ((2 * node) + ((tree lsr node) land 1))

(* Flip ancestors of [leaf] (heap node [ways + way]) to point at the
   sibling subtree: a left child sets its parent bit to 1, a right
   child to 0. *)
let rec plru_point_away tree node =
  if node <= 1 then tree
  else
    let parent = node / 2 in
    let bit = node land 1 lxor 1 in
    plru_point_away ((tree land lnot (1 lsl parent)) lor (bit lsl parent)) parent

let plru_touch (s : Slab.t) i =
  let w = s.Slab.ways in
  if plru_tree_capable w then begin
    let set = i lsr s.Slab.set_shift in
    let leaf = w + (i land (w - 1)) in
    s.Slab.tree.(set) <- plru_point_away s.Slab.tree.(set) leaf
  end

(* --- victim selection ------------------------------------------------ *)

let check (s : Slab.t) ~base ~len =
  if len <= 0 then invalid_arg "Policy.victim_in: no candidates";
  if base < 0 || base + len > s.Slab.n then
    invalid_arg "Policy.victim_in: candidate out of range"

let victim_in p rng (s : Slab.t) ~base ~len =
  check s ~base ~len;
  let i = Slab.first_invalid s ~base ~len in
  if i >= 0 then i
  else
    match p with
    | Lru -> Slab.min_last_use s ~base ~len
    | Fifo -> Slab.min_fill_seq s ~base ~len
    | Random -> base + Rng.int rng len
    | Mru -> Slab.max_last_use s ~base ~len
    | Lfu -> Slab.min_freq s ~base ~len
    | Mfu -> Slab.max_freq s ~base ~len
    | Plru ->
      if
        len = s.Slab.ways
        && plru_tree_capable len
        && base land (len - 1) = 0
      then base + plru_walk s.Slab.tree.(base lsr s.Slab.set_shift) len 1
      else Slab.min_last_use s ~base ~len

(* --- per-access state hooks ------------------------------------------ *)

let touch p (s : Slab.t) i ~seq =
  Slab.touch s i ~seq;
  match p with
  | Lru | Random | Fifo | Mru -> ()
  | Lfu | Mfu -> s.Slab.freq.(i) <- s.Slab.freq.(i) + 1
  | Plru -> plru_touch s i

let filled p (s : Slab.t) i =
  match p with
  | Lru | Random | Fifo | Mru | Lfu | Mfu -> ()
  | Plru -> plru_touch s i

(* --- cold path: explicit candidate lists ----------------------------- *)

let check_list (s : Slab.t) candidates =
  if candidates = [] then invalid_arg "Policy.victim_among_in: no candidates";
  List.iter
    (fun i ->
      if i < 0 || i >= s.Slab.n then
        invalid_arg "Policy.victim_among_in: candidate out of range")
    candidates

let min_by (a : int array) candidates =
  match candidates with
  | [] -> assert false
  | first :: rest ->
    List.fold_left (fun best i -> if a.(i) < a.(best) then i else best) first rest

let max_by (a : int array) candidates =
  match candidates with
  | [] -> assert false
  | first :: rest ->
    List.fold_left (fun best i -> if a.(i) > a.(best) then i else best) first rest

let victim_among_in p rng (s : Slab.t) ~candidates =
  check_list s candidates;
  match List.find_opt (fun i -> not (Slab.valid s i)) candidates with
  | Some i -> i
  | None -> (
    match p with
    | Lru -> min_by s.Slab.last_use candidates
    | Fifo -> min_by s.Slab.fill_seq candidates
    | Random -> List.nth candidates (Rng.int rng (List.length candidates))
    | Mru -> max_by s.Slab.last_use candidates
    | Lfu -> min_by s.Slab.freq candidates
    | Mfu -> max_by s.Slab.freq candidates
    | Plru -> min_by s.Slab.last_use candidates)
