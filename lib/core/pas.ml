(* An edge lies on an origin->observation path iff one of its parents is in
   the forward closure of the origins and its child is in the backward
   closure of the observations. *)
let critical_edges_from g origin_ids =
  let forward = Graph.reachable_from g origin_ids in
  let obs = List.map (fun (n : Node.t) -> n.id) (Graph.observations g) in
  let backward = Graph.co_reachable g obs in
  Graph.edges g
  |> List.filter (fun (e : Edge.t) ->
         Hashtbl.mem backward e.child
         && List.exists (fun p -> Hashtbl.mem forward p) e.parents)

let victim_critical_edges g =
  critical_edges_from g
    (List.map (fun (n : Node.t) -> n.id) (Graph.victim_origins g))

let attacker_critical_edges g =
  match Graph.attacker_origins g with
  | [] -> []
  | origins ->
    critical_edges_from g (List.map (fun (n : Node.t) -> n.id) origins)

let security_critical_edges g =
  List.sort_uniq Edge.compare (victim_critical_edges g @ attacker_critical_edges g)

let security_critical_nodes g =
  let ids =
    security_critical_edges g
    |> List.concat_map (fun (e : Edge.t) -> e.child :: e.parents)
    |> List.sort_uniq Int.compare
  in
  List.map (Graph.node g) ids

let pas g =
  match victim_critical_edges g with
  | [] -> 0.  (* the secret never reaches an observation: no attack *)
  | _ ->
    List.fold_left
      (fun acc (e : Edge.t) -> acc *. e.prob)
      1. (security_critical_edges g)
