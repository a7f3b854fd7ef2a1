type t = {
  id : int;
  label : string;
  parents : int list;
  child : int;
  prob : float;
}

let rec has_dup = function
  | [] -> false
  | x :: rest -> List.mem x rest || has_dup rest

let v ~id ?(label = "") ~parents ~child prob =
  if parents = [] then invalid_arg "Edge.v: an edge needs at least one parent";
  if has_dup parents then invalid_arg "Edge.v: duplicate parent";
  if List.mem child parents then invalid_arg "Edge.v: self-loop";
  if not (Float.is_finite prob) || prob < 0. || prob > 1. then
    invalid_arg "Edge.v: probability must lie in [0, 1]";
  { id; label; parents; child; prob }

let compare a b = Int.compare a.id b.id
