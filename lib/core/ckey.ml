(* Injective canonical keys (see the mli for the encoding argument).

   Each atom is "type char + payload + ';'" where the payload's
   representation cannot contain ';' (decimal integers, %h floats), or
   "type char + length + ':' + payload + ';'" when the payload is
   arbitrary bytes. Composites are 'l'/'t' nodes wrapping the
   concatenation of their children in parentheses; since every child
   encoding is self-delimiting, the concatenation has a unique parse
   and the whole encoding is injective by structural induction. *)

type t = K of string [@@unboxed]

let to_string (K s) = s
let int n = K (Printf.sprintf "i%d;" n)
let bool b = K (if b then "b1;" else "b0;")

(* %h prints the sign, so +0. and -0. differ (they are distinct IEEE
   values; callers that want them unified normalize first). All NaN
   payloads print as "nan". *)
let float f = K (Printf.sprintf "f%h;" f)
let string s = K (Printf.sprintf "s%d:%s;" (String.length s) s)

let concat parts =
  String.concat "" (List.map to_string parts)

let list parts = K (Printf.sprintf "l(%s)" (concat parts))

let tag name parts =
  K (Printf.sprintf "t%d:%s(%s)" (String.length name) name (concat parts))

let equal (K a) (K b) = String.equal a b
let compare (K a) (K b) = String.compare a b