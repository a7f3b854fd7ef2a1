module Int_map = Map.Make (Int)

type t = {
  nodes : Node.t Int_map.t;
  edges : Edge.t Int_map.t;
  in_edge : Edge.t Int_map.t;  (* child node id -> its defining edge *)
  out_edges : Edge.t list Int_map.t;  (* parent node id -> edges it feeds *)
  topo : Node.t list;
}

type error =
  | Cycle of int list
  | Unknown_node of int
  | Origin_has_parent of int
  | Duplicate_node_id of int
  | Duplicate_edge_id of int
  | Duplicate_child_definition of int
  | No_observation
  | No_victim_origin

let error_to_string = function
  | Cycle ids ->
    Printf.sprintf "cycle through nodes [%s]"
      (String.concat "; " (List.map string_of_int ids))
  | Unknown_node id -> Printf.sprintf "edge references undeclared node %d" id
  | Origin_has_parent id ->
    Printf.sprintf "security-origin node %d has an incoming edge" id
  | Duplicate_node_id id -> Printf.sprintf "duplicate node id %d" id
  | Duplicate_edge_id id -> Printf.sprintf "duplicate edge id %d" id
  | Duplicate_child_definition id ->
    Printf.sprintf "node %d is the child of more than one edge" id
  | No_observation -> "graph has no observation node"
  | No_victim_origin -> "graph has no victim security-origin node"

let is_origin (n : Node.t) =
  match n.role with
  | Node.Victim_origin | Node.Attacker_origin -> true
  | Node.Observation | Node.Internal -> false

(* Kahn's algorithm; returns the order or the residual cyclic node ids. *)
let toposort nodes in_degree succ =
  let degree = Hashtbl.copy in_degree in
  let ready =
    List.filter (fun (n : Node.t) -> Hashtbl.find degree n.id = 0) nodes
  in
  let module Q = Queue in
  let q = Q.create () in
  List.iter (fun n -> Q.add n q) ready;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Q.is_empty q) do
    let n : Node.t = Q.pop q in
    order := n :: !order;
    incr emitted;
    List.iter
      (fun child_id ->
        let d = Hashtbl.find degree child_id - 1 in
        Hashtbl.replace degree child_id d;
        if d = 0 then
          Q.add (List.find (fun (m : Node.t) -> m.id = child_id) nodes) q)
      (succ n.id)
  done;
  if !emitted = List.length nodes then Ok (List.rev !order)
  else begin
    let residual =
      List.filter_map
        (fun (n : Node.t) ->
          if Hashtbl.find degree n.id > 0 then Some n.id else None)
        nodes
    in
    Error residual
  end

let create ~nodes ~edges =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  (* Duplicate ids. *)
  let node_map =
    List.fold_left
      (fun m (n : Node.t) ->
        if Int_map.mem n.id m then begin
          err (Duplicate_node_id n.id);
          m
        end
        else Int_map.add n.id n m)
      Int_map.empty nodes
  in
  let edge_map =
    List.fold_left
      (fun m (e : Edge.t) ->
        if Int_map.mem e.id m then begin
          err (Duplicate_edge_id e.id);
          m
        end
        else Int_map.add e.id e m)
      Int_map.empty edges
  in
  (* Endpoint existence. *)
  let known id = Int_map.mem id node_map in
  Int_map.iter
    (fun _ (e : Edge.t) ->
      List.iter (fun p -> if not (known p) then err (Unknown_node p)) e.parents;
      if not (known e.child) then err (Unknown_node e.child))
    edge_map;
  (* One defining edge per child; origins have no parents. *)
  let in_edge = Hashtbl.create 16 in
  Int_map.iter
    (fun _ (e : Edge.t) ->
      if Hashtbl.mem in_edge e.child then err (Duplicate_child_definition e.child)
      else Hashtbl.replace in_edge e.child e;
      match Int_map.find_opt e.child node_map with
      | Some n when is_origin n -> err (Origin_has_parent n.id)
      | Some _ | None -> ())
    edge_map;
  (* Required special nodes. *)
  let roles = List.map (fun (n : Node.t) -> n.role) nodes in
  if not (List.mem Node.Observation roles) then err No_observation;
  if not (List.mem Node.Victim_origin roles) then err No_victim_origin;
  (* Acyclicity — only meaningful once endpoints resolve. *)
  let endpoint_errors =
    List.exists (function Unknown_node _ -> true | _ -> false) !errors
  in
  let topo =
    if endpoint_errors then Ok []
    else begin
      let in_degree = Hashtbl.create 16 in
      let succ = Hashtbl.create 16 in
      Int_map.iter (fun id _ ->
          Hashtbl.replace in_degree id 0;
          Hashtbl.replace succ id [])
        node_map;
      Int_map.iter
        (fun _ (e : Edge.t) ->
          Hashtbl.replace in_degree e.child
            (Hashtbl.find in_degree e.child + List.length e.parents);
          List.iter
            (fun p -> Hashtbl.replace succ p (e.child :: Hashtbl.find succ p))
            e.parents)
        edge_map;
      let sorted_nodes =
        Int_map.bindings node_map |> List.map snd
      in
      toposort sorted_nodes in_degree (Hashtbl.find succ)
    end
  in
  (match topo with
  | Ok _ -> ()
  | Error residual -> err (Cycle residual));
  match (!errors, topo) with
  | [], Ok order ->
    let out_edges =
      Int_map.fold
        (fun _ (e : Edge.t) acc ->
          List.fold_left
            (fun acc p ->
              let existing = Option.value ~default:[] (Int_map.find_opt p acc) in
              Int_map.add p (e :: existing) acc)
            acc e.parents)
        edge_map Int_map.empty
    in
    let in_edge_map =
      Hashtbl.fold (fun child e acc -> Int_map.add child e acc) in_edge Int_map.empty
    in
    Ok { nodes = node_map; edges = edge_map; in_edge = in_edge_map; out_edges; topo = order }
  | errs, _ -> Error (List.rev errs)

let create_exn ~nodes ~edges =
  match create ~nodes ~edges with
  | Ok g -> g
  | Error errs ->
    invalid_arg
      ("Graph.create_exn: " ^ String.concat "; " (List.map error_to_string errs))

let nodes t = Int_map.bindings t.nodes |> List.map snd
let edges t = Int_map.bindings t.edges |> List.map snd

let node t id =
  match Int_map.find_opt id t.nodes with Some n -> n | None -> raise Not_found

let node_count t = Int_map.cardinal t.nodes
let edge_count t = Int_map.cardinal t.edges

let dedup ids = List.sort_uniq Int.compare ids

let parents t id =
  match Int_map.find_opt id t.in_edge with
  | None -> []
  | Some e -> dedup e.parents

let children t id =
  match Int_map.find_opt id t.out_edges with
  | None -> []
  | Some es -> dedup (List.map (fun (e : Edge.t) -> e.child) es)


let by_role t role =
  nodes t |> List.filter (fun (n : Node.t) -> n.role = role)

let victim_origins t = by_role t Node.Victim_origin
let attacker_origins t = by_role t Node.Attacker_origin
let observations t = by_role t Node.Observation
let topological_order t = t.topo

let closure step start =
  let seen = Hashtbl.create 16 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter visit (step id)
    end
  in
  List.iter visit start;
  seen

let reachable_from t start = closure (children t) start
let co_reachable t start = closure (parents t) start

let tainted_nodes t =
  let origins = List.map (fun (n : Node.t) -> n.id) (victim_origins t) in
  let reach = reachable_from t origins in
  nodes t |> List.filter (fun (n : Node.t) -> Hashtbl.mem reach n.id)
