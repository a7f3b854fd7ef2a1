let zipf_popularity ~n ~exponent =
  if n <= 0 then invalid_arg "Perf_model.zipf_popularity: n must be positive";
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** exponent)) in
  let total = Array.fold_left ( +. ) 0. w in
  Array.map (fun x -> x /. total) w

let check popularity cache_lines =
  if cache_lines <= 0 then invalid_arg "Perf_model: cache_lines must be positive";
  if Array.length popularity = 0 then invalid_arg "Perf_model: empty popularity"

(* Solve sum_i f(p_i, T) = C for T by bisection; f is increasing in T. *)
let solve_characteristic ~popularity ~cache_lines f =
  let c = float_of_int cache_lines in
  let occupancy t = Array.fold_left (fun acc p -> acc +. f p t) 0. popularity in
  let rec widen hi = if occupancy hi < c then widen (2. *. hi) else hi in
  if float_of_int (Array.length popularity) <= c then None
  else begin
    let hi = widen 1. in
    let rec bisect lo hi n =
      if n = 0 then (lo +. hi) /. 2.
      else begin
        let mid = (lo +. hi) /. 2. in
        if occupancy mid < c then bisect mid hi (n - 1) else bisect lo mid (n - 1)
      end
    in
    Some (bisect 0. hi 100)
  end

let lru_hit_rate ~popularity ~cache_lines =
  check popularity cache_lines;
  let f p t = 1. -. exp (-.p *. t) in
  match solve_characteristic ~popularity ~cache_lines f with
  | None -> 1.  (* everything fits *)
  | Some t ->
    Array.fold_left (fun acc p -> acc +. (p *. f p t)) 0. popularity

let random_hit_rate ~popularity ~cache_lines =
  check popularity cache_lines;
  let f p t = p *. t /. (1. +. (p *. t)) in
  match solve_characteristic ~popularity ~cache_lines f with
  | None -> 1.
  | Some t ->
    Array.fold_left (fun acc p -> acc +. (p *. f p t)) 0. popularity

