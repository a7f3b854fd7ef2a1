type t =
  | Sa of { ways : int; policy : Policy.t }
  | Sp of { ways : int; policy : Policy.t; partitions : int }
  | Pl of { ways : int; policy : Policy.t }
  | Nomo of { ways : int; policy : Policy.t; reserved : int }
  | Newcache of { extra_bits : int }
  | Rp of { ways : int; policy : Policy.t }
  | Rf of { ways : int; policy : Policy.t; back : int; fwd : int }
  | Re of { ways : int; policy : Policy.t; interval : int }
  | Noisy of { ways : int; policy : Policy.t; sigma : float }

let paper_sa = Sa { ways = 8; policy = Policy.Random }
let paper_sp = Sp { ways = 8; policy = Policy.Random; partitions = 2 }
let paper_pl = Pl { ways = 8; policy = Policy.Random }
let paper_nomo = Nomo { ways = 8; policy = Policy.Random; reserved = 2 }
let paper_newcache = Newcache { extra_bits = 4 }
let paper_rp = Rp { ways = 8; policy = Policy.Random }
let paper_rf = Rf { ways = 8; policy = Policy.Random; back = 64; fwd = 64 }
let paper_re = Re { ways = 1; policy = Policy.Random; interval = 10 }
let paper_noisy = Noisy { ways = 8; policy = Policy.Random; sigma = 1.0 }

let all_paper =
  [
    paper_sa;
    paper_sp;
    paper_pl;
    paper_nomo;
    paper_newcache;
    paper_rp;
    paper_rf;
    paper_re;
    paper_noisy;
  ]

let name = function
  | Sa _ -> "sa"
  | Sp _ -> "sp"
  | Pl _ -> "pl"
  | Nomo _ -> "nomo"
  | Newcache _ -> "newcache"
  | Rp _ -> "rp"
  | Rf _ -> "rf"
  | Re _ -> "re"
  | Noisy _ -> "noisy"

let display_name = function
  | Sa _ -> "SA Cache"
  | Sp _ -> "SP Cache"
  | Pl _ -> "PL Cache"
  | Nomo _ -> "Nomo Cache"
  | Newcache _ -> "Newcache"
  | Rp _ -> "RP Cache"
  | Rf _ -> "RF Cache"
  | Re _ -> "RE Cache"
  | Noisy _ -> "Noisy Cache"

let of_name s =
  List.find_opt (fun spec -> name spec = s) all_paper

let with_policy spec policy =
  match spec with
  | Sa r -> Sa { r with policy }
  | Sp r -> Sp { r with policy }
  | Pl r -> Pl { r with policy }
  | Nomo r -> Nomo { r with policy }
  | Newcache _ as s -> s
  | Rp r -> Rp { r with policy }
  | Rf r -> Rf { r with policy }
  | Re r -> Re { r with policy }
  | Noisy r -> Noisy { r with policy }

let policy_of = function
  | Sa { policy; _ }
  | Sp { policy; _ }
  | Pl { policy; _ }
  | Nomo { policy; _ }
  | Rp { policy; _ }
  | Rf { policy; _ }
  | Re { policy; _ }
  | Noisy { policy; _ } -> Some policy
  | Newcache _ -> None
