open Cachesec_cache

let pow p m =
  let rec go acc n = if n = 0 then acc else go (acc *. p) (n - 1) in
  go 1. m

let check_lines lines =
  if lines <= 0 then invalid_arg "Multi: lines must be positive"

let evict_and_time ?config ~lines spec =
  check_lines lines;
  let e = Edge_probs.evict_and_time ?config spec () in
  let p = Edge_probs.find e in
  pow (p "p1" *. p "p2" *. p "p3") lines *. p "p4" *. p "p5"

let advantage_table ?config ~lines () =
  List.map
    (fun spec ->
      ( Spec.display_name spec,
        evict_and_time ?config ~lines:1 spec,
        evict_and_time ?config ~lines spec ))
    Spec.all_paper
