type t = {
  state : Random.State.t;
  spare : float array;
  mutable has_spare : bool;
}
(* [spare.(0)] caches the second variate produced by each Box-Muller
   step while [has_spare]; a one-slot float array holds it unboxed. *)

let of_state state = { state; spare = [| 0. |]; has_spare = false }
let create ~seed = of_state (Random.State.make [| seed; 0x9e3779b9 |])

let split t =
  let seed = Random.State.bits t.state in
  of_state (Random.State.make [| seed; 0x85ebca6b |])

(* SplitMix64-style finalizer adapted to OCaml's 63-bit ints: two rounds
   of xorshift-multiply with odd constants (xorshift64* / golden-ratio
   increments, truncated to fit the native int range), then a final mask
   keeping the result non-negative. Quality requirement here is stream
   separation for Monte-Carlo trial seeding, not cryptographic strength. *)
let mask62 = 0x3FFFFFFFFFFFFFFF

let mix z =
  let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 27)) * 0x1B03738712FAD5C9 in
  (z lxor (z lsr 31)) land mask62

let derive_seed base i =
  mix ((mix (base + 0x165667B19E3779F9) lxor i) + (i * 0x3779B97F4A7C15))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int t.state bound

let float t bound = Random.State.float t.state bound
let bool t = Random.State.bool t.state

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

(* A uniform draw in (0, 1). A loop, not a recursion, so it inlines and
   its result stays unboxed. *)
let[@inline] nonzero t =
  let u = ref (float t 1.0) in
  while not (!u > 0.) do
    u := float t 1.0
  done;
  !u

let gaussian t ~mu ~sigma =
  if sigma < 0. then invalid_arg "Rng.gaussian: negative sigma";
  if sigma = 0. then mu
  else if t.has_spare then begin
    t.has_spare <- false;
    mu +. (sigma *. t.spare.(0))
  end
  else begin
    (* Box-Muller: two uniforms give two independent standard normals. *)
    let u1 = nonzero t in
    let u2 = float t 1.0 in
    let r = sqrt (-2. *. log u1) in
    let theta = 2. *. Float.pi *. u2 in
    t.spare.(0) <- r *. sin theta;
    t.has_spare <- true;
    mu +. (sigma *. (r *. cos theta))
  end
