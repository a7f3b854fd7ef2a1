let mask = 0xffffffff

type key = { words : int array; raw : Bytes.t }
type access = { table : int; index : int }

let getu32 b i =
  (Char.code (Bytes.get b i) lsl 24)
  lor (Char.code (Bytes.get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.get b (i + 2)) lsl 8)
  lor Char.code (Bytes.get b (i + 3))

let putu32 b i w =
  Bytes.set b i (Char.chr ((w lsr 24) land 0xff));
  Bytes.set b (i + 1) (Char.chr ((w lsr 16) land 0xff));
  Bytes.set b (i + 2) (Char.chr ((w lsr 8) land 0xff));
  Bytes.set b (i + 3) (Char.chr (w land 0xff))

let sub_word w =
  (Sbox.sub (w lsr 24) lsl 24)
  lor (Sbox.sub ((w lsr 16) land 0xff) lsl 16)
  lor (Sbox.sub ((w lsr 8) land 0xff) lsl 8)
  lor Sbox.sub (w land 0xff)

let rot_word w = ((w lsl 8) lor (w lsr 24)) land mask

let key_of_bytes raw =
  if Bytes.length raw <> 16 then invalid_arg "Aes.key_of_bytes: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- getu32 raw (4 * i)
  done;
  for i = 4 to 43 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then
        sub_word (rot_word temp) lxor (Gf256.pow 2 ((i / 4) - 1) lsl 24)
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp land mask
  done;
  { words = w; raw = Bytes.copy raw }

let key_bytes k = Bytes.copy k.raw

(* The shared encryption core. [sink] sees every table lookup. *)
let encrypt_core k input sink =
  if Bytes.length input <> 16 then invalid_arg "Aes.encrypt: need a 16-byte block";
  let w = k.words in
  let te0 = Ttables.te 0
  and te1 = Ttables.te 1
  and te2 = Ttables.te 2
  and te3 = Ttables.te 3 in
  let look t tbl i =
    sink { table = t; index = i };
    tbl.(i)
  in
  let s = Array.make 4 0 in
  for c = 0 to 3 do
    s.(c) <- getu32 input (4 * c) lxor w.(c)
  done;
  let t = Array.make 4 0 in
  for round = 1 to 9 do
    for c = 0 to 3 do
      (* Sequential lets fix the lookup order (OCaml evaluates operator
         operands right to left): the trace must reflect program order. *)
      let l0 = look 0 te0 (s.(c) lsr 24) in
      let l1 = look 1 te1 ((s.((c + 1) mod 4) lsr 16) land 0xff) in
      let l2 = look 2 te2 ((s.((c + 2) mod 4) lsr 8) land 0xff) in
      let l3 = look 3 te3 (s.((c + 3) mod 4) land 0xff) in
      t.(c) <- l0 lxor l1 lxor l2 lxor l3 lxor w.((4 * round) + c)
    done;
    Array.blit t 0 s 0 4
  done;
  let out = Bytes.create 16 in
  for c = 0 to 3 do
    let l0 = look 4 Ttables.te4 (s.(c) lsr 24) land 0xff000000 in
    let l1 =
      look 4 Ttables.te4 ((s.((c + 1) mod 4) lsr 16) land 0xff) land 0x00ff0000
    in
    let l2 =
      look 4 Ttables.te4 ((s.((c + 2) mod 4) lsr 8) land 0xff) land 0x0000ff00
    in
    let l3 = look 4 Ttables.te4 (s.((c + 3) mod 4) land 0xff) land 0x000000ff in
    let o = l0 lxor l1 lxor l2 lxor l3 lxor w.(40 + c) in
    putu32 out (4 * c) (o land mask)
  done;
  out

let encrypt k input = encrypt_core k input ignore

(* ------------------------------------------------------------------ *)
(* Allocation-free fast path.

   [encrypt_traced_into] is the same cipher as [encrypt_core], unrolled
   without the [sink] closure: every table lookup is written as a packed
   [(table lsl 8) lor index] int into a caller-owned [trace] array at an
   arithmetically computed position, so a steady-state call allocates
   nothing (ints are immediate; the state arrays live in [scratch]).
   Lookup ORDER and index VALUES are identical to [encrypt_core] —
   [encrypt_traced] below is re-derived from this path and the test
   suite pins it against the closure-based core's historical output. *)

let trace_length = 160

type scratch = { st : int array; tmp : int array }

let create_scratch () = { st = Array.make 4 0; tmp = Array.make 4 0 }

let encrypt_traced_into sc k ~src ~dst ~trace =
  if Bytes.length src <> 16 then invalid_arg "Aes.encrypt: need a 16-byte block";
  if Bytes.length dst <> 16 then
    invalid_arg "Aes.encrypt_traced_into: dst needs 16 bytes";
  if Array.length trace < trace_length then
    invalid_arg "Aes.encrypt_traced_into: trace needs 160 slots";
  let w = k.words in
  let te0 = Ttables.te 0
  and te1 = Ttables.te 1
  and te2 = Ttables.te 2
  and te3 = Ttables.te 3
  and te4 = Ttables.te4 in
  let s = sc.st and t = sc.tmp in
  for c = 0 to 3 do
    s.(c) <- getu32 src (4 * c) lxor w.(c)
  done;
  for round = 1 to 9 do
    let base = (round - 1) * 16 in
    for c = 0 to 3 do
      let p = base + (4 * c) in
      (* Sequential lets fix the lookup order, exactly as in
         [encrypt_core]: program order is te0, te1, te2, te3. *)
      let i0 = s.(c) lsr 24 in
      trace.(p) <- i0 (* table 0: packed tag is 0 *);
      let l0 = te0.(i0) in
      let i1 = (s.((c + 1) mod 4) lsr 16) land 0xff in
      trace.(p + 1) <- 0x100 lor i1;
      let l1 = te1.(i1) in
      let i2 = (s.((c + 2) mod 4) lsr 8) land 0xff in
      trace.(p + 2) <- 0x200 lor i2;
      let l2 = te2.(i2) in
      let i3 = s.((c + 3) mod 4) land 0xff in
      trace.(p + 3) <- 0x300 lor i3;
      let l3 = te3.(i3) in
      t.(c) <- l0 lxor l1 lxor l2 lxor l3 lxor w.((4 * round) + c)
    done;
    Array.blit t 0 s 0 4
  done;
  for c = 0 to 3 do
    let p = 144 + (4 * c) in
    let i0 = s.(c) lsr 24 in
    trace.(p) <- 0x400 lor i0;
    let l0 = te4.(i0) land 0xff000000 in
    let i1 = (s.((c + 1) mod 4) lsr 16) land 0xff in
    trace.(p + 1) <- 0x400 lor i1;
    let l1 = te4.(i1) land 0x00ff0000 in
    let i2 = (s.((c + 2) mod 4) lsr 8) land 0xff in
    trace.(p + 2) <- 0x400 lor i2;
    let l2 = te4.(i2) land 0x0000ff00 in
    let i3 = s.((c + 3) mod 4) land 0xff in
    trace.(p + 3) <- 0x400 lor i3;
    let l3 = te4.(i3) land 0x000000ff in
    let o = l0 lxor l1 lxor l2 lxor l3 lxor w.(40 + c) in
    putu32 dst (4 * c) (o land mask)
  done

let encrypt_traced k input =
  let sc = create_scratch () in
  let trace = Array.make trace_length 0 in
  let dst = Bytes.create 16 in
  encrypt_traced_into sc k ~src:input ~dst ~trace;
  (dst, Array.map (fun a -> { table = a lsr 8; index = a land 0xff }) trace)

(* Byte-oriented inverse cipher, used as the round-trip oracle. *)
let add_round_key state w off =
  for c = 0 to 3 do
    let word = w.(off + c) in
    for r = 0 to 3 do
      let i = (4 * c) + r in
      state.(i) <- state.(i) lxor ((word lsr (24 - (8 * r))) land 0xff)
    done
  done

let inv_shift_rows state =
  let copy = Array.copy state in
  for r = 0 to 3 do
    for c = 0 to 3 do
      (* state'[r][c] = state[r][(c - r) mod 4] *)
      state.((4 * c) + r) <- copy.((4 * ((c - r + 4) mod 4)) + r)
    done
  done

let inv_sub_bytes state =
  for i = 0 to 15 do
    state.(i) <- Sbox.inv_sub state.(i)
  done

let inv_mix_columns state =
  for c = 0 to 3 do
    let b i = state.((4 * c) + i) in
    let a0 = b 0 and a1 = b 1 and a2 = b 2 and a3 = b 3 in
    let m = Gf256.mul in
    state.(4 * c) <- m a0 14 lxor m a1 11 lxor m a2 13 lxor m a3 9;
    state.((4 * c) + 1) <- m a0 9 lxor m a1 14 lxor m a2 11 lxor m a3 13;
    state.((4 * c) + 2) <- m a0 13 lxor m a1 9 lxor m a2 14 lxor m a3 11;
    state.((4 * c) + 3) <- m a0 11 lxor m a1 13 lxor m a2 9 lxor m a3 14
  done

let decrypt k input =
  if Bytes.length input <> 16 then invalid_arg "Aes.decrypt: need a 16-byte block";
  let state = Array.init 16 (fun i -> Char.code (Bytes.get input i)) in
  add_round_key state k.words 40;
  for round = 9 downto 1 do
    inv_shift_rows state;
    inv_sub_bytes state;
    add_round_key state k.words (4 * round);
    inv_mix_columns state
  done;
  inv_shift_rows state;
  inv_sub_bytes state;
  add_round_key state k.words 0;
  Bytes.init 16 (fun i -> Char.chr state.(i))

let round10_key k =
  let b = Bytes.create 16 in
  for c = 0 to 3 do
    putu32 b (4 * c) k.words.(40 + c)
  done;
  b

let key_of_round10 last =
  if Bytes.length last <> 16 then
    invalid_arg "Aes.key_of_round10: need 16 bytes";
  let w = Array.make 44 0 in
  for c = 0 to 3 do
    w.(40 + c) <- getu32 last (4 * c)
  done;
  (* The schedule step is w.(i) = w.(i-4) xor f(w.(i-1)); walking i from
     43 down to 4 recovers w.(i-4) because w.(i-1) is always already
     known (for i = 40 it is w.(39), produced at step i = 43). *)
  for i = 43 downto 4 do
    let temp =
      if i mod 4 = 0 then
        sub_word (rot_word w.(i - 1)) lxor (Gf256.pow 2 ((i / 4) - 1) lsl 24)
      else w.(i - 1)
    in
    w.(i - 4) <- w.(i) lxor temp land mask
  done;
  let raw = Bytes.create 16 in
  for c = 0 to 3 do
    putu32 raw (4 * c) w.(c)
  done;
  key_of_bytes raw

let hex_of_bytes b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Aes.bytes_of_hex: non-hex character"

let bytes_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Aes.bytes_of_hex: odd length";
  Bytes.init (n / 2) (fun i ->
      Char.chr ((hex_digit s.[2 * i] lsl 4) lor hex_digit s.[(2 * i) + 1]))

let key_of_hex s =
  let b = bytes_of_hex s in
  if Bytes.length b <> 16 then invalid_arg "Aes.key_of_hex: need 32 hex digits";
  key_of_bytes b
