type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
let std t = sqrt (variance t)

(* In-place Chan et al. parallel update: fold [b] into [a]. [b.mean]/
   [b.m2] are read before any write to [a], so [merge_into t t] is also
   well-defined (doubles the stream). *)
let merge_into a b =
  if b.n = 0 then ()
  else if a.n = 0 then begin
    a.n <- b.n;
    a.mean <- b.mean;
    a.m2 <- b.m2
  end
  else begin
    let n = a.n + b.n in
    let fa = float_of_int a.n and fb = float_of_int b.n and fn = float_of_int n in
    let delta = b.mean -. a.mean in
    a.mean <- a.mean +. (delta *. fb /. fn);
    a.m2 <- a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. fn);
    a.n <- n
  end

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t
