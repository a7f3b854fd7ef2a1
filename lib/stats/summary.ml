type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
let std t = sqrt (variance t)
let min t = t.min
let max t = t.max
let total t = t.total

(* In-place Chan et al. parallel update: fold [b] into [a]. [b.mean]/
   [b.m2] are read before any write to [a], so [merge_into t t] is also
   well-defined (doubles the stream). *)
let merge_into a b =
  if b.n = 0 then ()
  else if a.n = 0 then begin
    a.n <- b.n;
    a.mean <- b.mean;
    a.m2 <- b.m2;
    a.min <- b.min;
    a.max <- b.max;
    a.total <- b.total
  end
  else begin
    let n = a.n + b.n in
    let fa = float_of_int a.n and fb = float_of_int b.n and fn = float_of_int n in
    let delta = b.mean -. a.mean in
    a.mean <- a.mean +. (delta *. fb /. fn);
    a.m2 <- a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. fn);
    a.n <- n;
    a.min <- Float.min a.min b.min;
    a.max <- Float.max a.max b.max;
    a.total <- a.total +. b.total
  end

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t
