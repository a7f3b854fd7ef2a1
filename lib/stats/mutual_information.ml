type joint = {
  x_card : int;
  y_card : int;
  table : int array array;
  mutable n : int;
}

let create ~x_card ~y_card =
  if x_card <= 0 || y_card <= 0 then
    invalid_arg "Mutual_information.create: cardinalities must be positive";
  { x_card; y_card; table = Array.make_matrix x_card y_card 0; n = 0 }

let observe j ~x ~y =
  if x < 0 || x >= j.x_card || y < 0 || y >= j.y_card then
    invalid_arg "Mutual_information.observe: outcome out of range";
  j.table.(x).(y) <- j.table.(x).(y) + 1;
  j.n <- j.n + 1

let log2 x = log x /. log 2.

let marginals j =
  let px = Array.make j.x_card 0 and py = Array.make j.y_card 0 in
  for x = 0 to j.x_card - 1 do
    for y = 0 to j.y_card - 1 do
      px.(x) <- px.(x) + j.table.(x).(y);
      py.(y) <- py.(y) + j.table.(x).(y)
    done
  done;
  (px, py)

let entropy_of_counts counts n =
  if n = 0 then 0.
  else
    Array.fold_left
      (fun acc c ->
        if c = 0 then acc
        else begin
          let p = float_of_int c /. float_of_int n in
          acc -. (p *. log2 p)
        end)
      0. counts

let entropy_x j = entropy_of_counts (fst (marginals j)) j.n
let mi j =
  if j.n = 0 then 0.
  else begin
    let px, py = marginals j in
    let n = float_of_int j.n in
    let acc = ref 0. in
    for x = 0 to j.x_card - 1 do
      for y = 0 to j.y_card - 1 do
        let c = j.table.(x).(y) in
        if c > 0 then begin
          let pxy = float_of_int c /. n in
          let p_x = float_of_int px.(x) /. n and p_y = float_of_int py.(y) /. n in
          acc := !acc +. (pxy *. log2 (pxy /. (p_x *. p_y)))
        end
      done
    done;
    Float.max 0. !acc
  end

let normalized_mi j =
  let hx = entropy_x j in
  if hx = 0. then 0. else mi j /. hx

let of_samples ~x_card ~y_card samples =
  let j = create ~x_card ~y_card in
  Array.iter (fun (x, y) -> observe j ~x ~y) samples;
  j
