open Cachesec_stats
open Cachesec_cache

let check_kw ~ways ~k =
  if ways <= 0 then invalid_arg "Prepas: ways must be positive";
  if k < 0 then invalid_arg "Prepas: k must be non-negative"

let sa_lru ~ways ~k =
  check_kw ~ways ~k;
  if k >= ways then 1. else 0.

(* Same step as LRU — the attacker's k distinct misses are the set's k
   oldest fills — but deliberately its own arm: a policy must own its
   formula so a new policy can never silently inherit a wrong one. *)
let sa_fifo ~ways ~k =
  check_kw ~ways ~k;
  if k >= ways then 1. else 0.

let sa_random ~ways ~k =
  check_kw ~ways ~k;
  Coupon.prob_all_covered ~bins:ways ~trials:k

(* MRU, LFU and MFU all self-thrash under the cleaning game: the
   attacker's first miss evicts one victim line (the most-recent /
   tie-broken-first one), but the attacker's own fresh fill is then
   itself the most-recently-used line — and under LFU/MFU every line
   ties at frequency 1 with the same first-occurrence tie-break — so
   every subsequent miss evicts the attacker's previous fill. Exactly
   one victim line is ever cleaned; the game succeeds only in the
   degenerate single-way set. *)
let sa_self_thrash ~ways ~k =
  check_kw ~ways ~k;
  if ways = 1 && k >= 1 then 1. else 0.

(* Tree-PLRU: from any tree state, [ways] consecutive misses (each fill
   re-pointing the tree away from itself) visit [ways] distinct leaves
   — by induction on the tree height the walk alternates subtrees — so
   the set is cleaned exactly when k reaches the associativity; the
   same step as true LRU. Non-power-of-two geometries run the engine's
   LRU fallback, which is the same step again. *)
let sa_plru ~ways ~k =
  check_kw ~ways ~k;
  if k >= ways then 1. else 0.

(* Per-policy dispatch, one arm per policy; exhaustive, so a new
   [Policy] constructor is a compile error here until its formula is
   written. Under MRU/LFU/MFU each attacker miss evicts his own previous
   fill (the most recently used line; under LFU/MFU every line ties at
   frequency 1 and the tie-break re-selects the same way). *)
let sa ~ways ~k ~policy =
  match policy with
  | Policy.Lru -> sa_lru ~ways ~k
  | Policy.Fifo -> sa_fifo ~ways ~k
  | Policy.Random -> sa_random ~ways ~k
  | Policy.Mru -> sa_self_thrash ~ways ~k
  | Policy.Lfu -> sa_self_thrash ~ways ~k
  | Policy.Mfu -> sa_self_thrash ~ways ~k
  | Policy.Plru -> sa_plru ~ways ~k

let newcache ~logical_lines ~k =
  if logical_lines <= 0 then invalid_arg "Prepas.newcache: lines must be positive";
  if k < 0 then invalid_arg "Prepas.newcache: k must be non-negative";
  1. -. exp (float_of_int k *. log (1. -. (1. /. float_of_int logical_lines)))

let re ~ways ~interval ~k ~policy =
  if interval <= 0 then invalid_arg "Prepas.re: interval must be positive";
  check_kw ~ways ~k;
  let effective = k + (k / interval) in
  sa ~ways ~k:effective ~policy

let nomo ~ways ~reserved ~victim_lines_in_set ~k ~policy =
  check_kw ~ways ~k;
  if reserved < 0 || reserved >= ways then
    invalid_arg "Prepas.nomo: reserved must lie in [0, ways)";
  if victim_lines_in_set <= reserved then 0.
  else sa ~ways:(ways - reserved) ~k ~policy

let for_spec ?victim_lines_in_set ?(prefetched = true) spec ~k =
  match spec with
  | Spec.Sa { ways; policy } | Spec.Noisy { ways; policy; _ } -> sa ~ways ~k ~policy
  | Spec.Sp _ -> 0.
  | Spec.Pl { ways; policy } -> if prefetched then 0. else sa ~ways ~k ~policy
  | Spec.Nomo { ways; policy; reserved } ->
    let victim_lines_in_set = Option.value victim_lines_in_set ~default:ways in
    nomo ~ways ~reserved ~victim_lines_in_set ~k ~policy
  | Spec.Newcache { extra_bits = _ } ->
    (* The designated physical line sits among the physical lines the
       attacker's random evictions choose from. *)
    newcache ~logical_lines:Config.standard.Config.lines ~k
  | Spec.Rp { ways; policy } | Spec.Rf { ways; policy; _ } -> sa ~ways ~k ~policy
  | Spec.Re { ways; policy; interval } -> re ~ways ~interval ~k ~policy

(* k -> infinity limit of {!for_spec}: every closed form above is
   eventually constant in k except Random's coupon-collector sum, whose
   tail term ((ways-1)/ways)^k is far below double-precision resolution
   at this horizon — so the result is exactly 0. or 1. *)
let cleaning_limit ?victim_lines_in_set ?prefetched spec =
  for_spec ?victim_lines_in_set ?prefetched spec ~k:65536

let figure8_series ~specs ~ks =
  List.map
    (fun (name, spec) ->
      (name, List.map (fun k -> (k, for_spec spec ~k)) ks))
    specs
