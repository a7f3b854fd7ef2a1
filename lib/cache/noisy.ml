type t = { sa : Sa.t; sigma : float }

let create ?config ?policy ?(sigma = 1.0) ~rng () =
  if sigma < 0. then invalid_arg "Noisy.create: negative sigma";
  { sa = Sa.create ?config ?policy ~rng (); sigma }

let sigma t = t.sigma

let engine t =
  { (Sa.engine t.sa) with Engine.name = Printf.sprintf "noisy-sigma-%g" t.sigma; sigma = t.sigma }
