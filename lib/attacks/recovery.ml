let argmax scores =
  if Array.length scores = 0 then invalid_arg "Recovery.argmax: empty";
  let best = ref 0 in
  Array.iteri (fun i s -> if s > scores.(!best) then best := i) scores;
  !best

let normalize scores =
  let lo = Array.fold_left Float.min infinity scores in
  let hi = Array.fold_left Float.max neg_infinity scores in
  if hi -. lo <= 0. then Array.make (Array.length scores) 0.
  else Array.map (fun s -> (s -. lo) /. (hi -. lo)) scores

let group_scores scores ~group_size =
  let n = Array.length scores in
  if group_size <= 0 || n mod group_size <> 0 then
    invalid_arg "Recovery.group_scores: group_size must divide length";
  Array.init (n / group_size) (fun g ->
      let sum = ref 0. in
      for j = 0 to group_size - 1 do
        sum := !sum +. scores.((g * group_size) + j)
      done;
      !sum /. float_of_int group_size)

let nibble_recovered ~scores ~true_byte ~group_size =
  let grouped = group_scores scores ~group_size in
  let lo = Array.fold_left Float.min infinity grouped in
  let hi = Array.fold_left Float.max neg_infinity grouped in
  (* A flat profile carries no information; argmax would spuriously
     pick group 0. *)
  hi > lo && argmax grouped = true_byte / group_size

let separation scores ~winner =
  let n = Array.length scores in
  if n < 3 then nan
  else begin
    let others =
      Array.of_seq
        (Seq.filter_map
           (fun i -> if i = winner then None else Some scores.(i))
           (Seq.init n Fun.id))
    in
    let s = Cachesec_stats.Summary.of_array others in
    let std = Cachesec_stats.Summary.std s in
    if std = 0. || Float.is_nan std then nan
    else (scores.(winner) -. Cachesec_stats.Summary.mean s) /. std
  end
