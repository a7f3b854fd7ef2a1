open Cachesec_stats

let p5 ~sigma =
  if sigma < 0. then invalid_arg "Noise.p5: negative sigma";
  if sigma = 0. then 1. else Special.normal_cdf (1. /. (2. *. sigma))

let sigma_for_p5 ~target =
  if target <= 0.5 || target >= 1. then
    invalid_arg "Noise.sigma_for_p5: target must lie in (0.5, 1)";
  (* p5 decreases in sigma: bisect on [lo, hi]. *)
  let rec widen hi = if p5 ~sigma:hi > target then widen (2. *. hi) else hi in
  let hi = widen 1. in
  let rec bisect lo hi n =
    if n = 0 then (lo +. hi) /. 2.
    else begin
      let mid = (lo +. hi) /. 2. in
      if p5 ~sigma:mid > target then bisect mid hi (n - 1) else bisect lo mid (n - 1)
    end
  in
  bisect 1e-9 hi 80

let figure4_series ~sigmas = List.map (fun s -> (s, p5 ~sigma:s)) sigmas

let trials_to_overcome ~sigma ~confidence =
  if confidence <= 0.5 || confidence >= 1. then
    invalid_arg "Noise.trials_to_overcome: confidence must lie in (0.5, 1)";
  if sigma = 0. then 1
  else begin
    let ok n =
      Special.normal_cdf (sqrt (float_of_int n) /. (2. *. sigma)) >= confidence
    in
    let rec bound n = if ok n then n else bound (2 * n) in
    let hi = bound 1 in
    let rec shrink lo hi =
      if lo >= hi then hi
      else begin
        let mid = (lo + hi) / 2 in
        if ok mid then shrink lo mid else shrink (mid + 1) hi
      end
    in
    shrink 1 hi
  end
