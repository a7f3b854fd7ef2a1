let prob_all_covered ~bins ~trials =
  if bins <= 0 then invalid_arg "Coupon.prob_all_covered: bins must be positive";
  if trials < 0 then invalid_arg "Coupon.prob_all_covered: negative trials";
  if trials < bins then 0.
  else begin
    let w = float_of_int bins in
    let k = float_of_int trials in
    (* Inclusion-exclusion; terms computed in the log domain to stay stable
       for large k where (1 - i/w)^k underflows gracefully to 0. *)
    let acc = ref 0. in
    for i = 0 to bins do
      let sign = if i mod 2 = 0 then 1. else -1. in
      let frac = 1. -. (float_of_int i /. w) in
      let term =
        if frac <= 0. then if trials = 0 && i = bins then 1. else 0.
        else exp (Special.log_binomial bins i +. (k *. log frac))
      in
      acc := !acc +. (sign *. term)
    done;
    Float.max 0. (Float.min 1. !acc)
  end

let prob_cell_hit ~bins ~trials =
  if bins <= 0 then invalid_arg "Coupon.prob_cell_hit: bins must be positive";
  if trials < 0 then invalid_arg "Coupon.prob_cell_hit: negative trials";
  let w = float_of_int bins in
  1. -. exp (float_of_int trials *. log ((w -. 1.) /. w))

let expected_trials ~bins =
  if bins <= 0 then invalid_arg "Coupon.expected_trials: bins must be positive";
  let h = ref 0. in
  for i = 1 to bins do
    h := !h +. (1. /. float_of_int i)
  done;
  float_of_int bins *. !h
