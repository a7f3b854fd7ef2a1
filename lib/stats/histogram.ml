type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    underflow = 0;
    overflow = 0;
    total = 0;
  }

let bin_of_value t x =
  if x < t.lo || x >= t.hi then None
  else begin
    let i = int_of_float ((x -. t.lo) /. t.width) in
    (* Guard against the floating edge case x just below hi rounding up. *)
    Some (Stdlib.min i (Array.length t.counts - 1))
  end

let add t x =
  t.total <- t.total + 1;
  match bin_of_value t x with
  | Some i -> t.counts.(i) <- t.counts.(i) + 1
  | None -> if x < t.lo then t.underflow <- t.underflow + 1 else t.overflow <- t.overflow + 1

let add_many t xs = Array.iter (add t) xs

let counts t = Array.copy t.counts
let underflow t = t.underflow
let overflow t = t.overflow
let total t = t.total
let bin_center t i = t.lo +. ((float_of_int i +. 0.5) *. t.width)

let density t =
  let in_range = Array.fold_left ( + ) 0 t.counts in
  if in_range = 0 then Array.make (Array.length t.counts) 0.
  else
    let norm = float_of_int in_range *. t.width in
    Array.map (fun c -> float_of_int c /. norm) t.counts

let mode t =
  if Array.fold_left ( + ) 0 t.counts = 0 then None
  else begin
    let best = ref 0 in
    Array.iteri (fun i c -> if c > t.counts.(!best) then best := i) t.counts;
    Some !best
  end
