(* Tests for the PIFG core: nodes, edges, graph invariants, topological
   structure and the PAS theorem. *)

open Cachesec_core

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let node id label role = Node.v ~id ~label ~role
let internal id = node id (Printf.sprintf "n%d" id) Node.Internal

(* The paper's Figure 2 graph, used throughout. *)
let figure2 () =
  let nodes =
    [
      node 0 "A" Node.Attacker_origin;
      node 1 "B" Node.Internal;
      node 2 "C" Node.Internal;
      node 3 "D" Node.Internal;
      node 4 "E" Node.Internal;
      node 5 "I" Node.Victim_origin;
      node 6 "J" Node.Internal;
      node 7 "F" Node.Internal;
      node 8 "G" Node.Internal;
      node 9 "H" Node.Internal;
      node 10 "K" Node.Observation;
      node 11 "L" Node.Internal;
      node 12 "M" Node.Internal;
    ]
  in
  let e id label parents child p = Edge.v ~id ~label ~parents ~child p in
  let edges =
    [
      e 1 "p1" [ 0 ] 1 0.5;
      e 2 "p2" [ 1 ] 2 0.9;
      e 3 "p3" [ 2 ] 3 0.8;
      e 4 "p4" [ 1 ] 4 0.25;
      e 5 "p5" [ 5 ] 6 1.0;
      e 6 "p6" [ 4; 6 ] 7 1.0;
      e 7 "p7" [ 7 ] 8 0.5;
      e 8 "p8" [ 7 ] 9 0.7;
      e 9 "p9" [ 8 ] 10 1.0;
      e 10 "p10" [ 9 ] 11 0.6;
      e 11 "p11" [ 11 ] 12 0.4;
    ]
  in
  Graph.create_exn ~nodes ~edges

(* --- Node / Edge constructors ---------------------------------------- *)

let test_node_roles () =
  Alcotest.(check bool) "role kept" true
    ((node 1 "x" Node.Victim_origin).Node.role = Node.Victim_origin);
  let b = node 1 "y" Node.Observation in
  Alcotest.(check int) "id kept" 1 b.Node.id

let test_edge_validation () =
  let mk ?(parents = [ 1 ]) ?(child = 2) p () =
    ignore (Edge.v ~id:0 ~parents ~child p)
  in
  Alcotest.check_raises "empty parents"
    (Invalid_argument "Edge.v: an edge needs at least one parent")
    (mk ~parents:[] 0.5);
  Alcotest.check_raises "dup parents"
    (Invalid_argument "Edge.v: duplicate parent")
    (mk ~parents:[ 1; 1 ] 0.5);
  Alcotest.check_raises "self loop" (Invalid_argument "Edge.v: self-loop")
    (mk ~parents:[ 2 ] ~child:2 0.5);
  Alcotest.check_raises "prob > 1"
    (Invalid_argument "Edge.v: probability must lie in [0, 1]")
    (mk 1.5);
  Alcotest.check_raises "prob < 0"
    (Invalid_argument "Edge.v: probability must lie in [0, 1]")
    (mk (-0.1));
  Alcotest.check_raises "nan prob"
    (Invalid_argument "Edge.v: probability must lie in [0, 1]")
    (mk nan)

(* --- Graph validation ------------------------------------------------- *)

(* The rendered errors of an invalid graph; "" for a valid one. *)
let errors ~nodes ~edges =
  match Graph.create_exn ~nodes ~edges with
  | _ -> ""
  | exception Invalid_argument msg -> msg

let has_error sub msg =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1))
  in
  at 0

let base_nodes =
  [
    node 0 "v" Node.Victim_origin;
    node 1 "mid" Node.Internal;
    node 2 "obs" Node.Observation;
  ]

let chain_edges =
  [
    Edge.v ~id:0 ~parents:[ 0 ] ~child:1 0.5;
    Edge.v ~id:1 ~parents:[ 1 ] ~child:2 0.5;
  ]

let test_graph_valid () =
  let g = Graph.create_exn ~nodes:base_nodes ~edges:chain_edges in
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "edges" 2 (Graph.edge_count g)

let test_graph_duplicate_node () =
  let r =
    errors
      ~nodes:(base_nodes @ [ node 0 "dup" Node.Internal ])
      ~edges:chain_edges
  in
  Alcotest.(check bool) "dup node id" true
    (has_error "duplicate node id 0" r)

let test_graph_duplicate_edge () =
  let r =
    errors ~nodes:base_nodes
      ~edges:(chain_edges @ [ Edge.v ~id:0 ~parents:[ 0 ] ~child:2 0.1 ])
  in
  Alcotest.(check bool) "dup edge id" true
    (has_error "duplicate edge id 0" r)

let test_graph_unknown_node () =
  let r =
    errors ~nodes:base_nodes
      ~edges:[ Edge.v ~id:0 ~parents:[ 99 ] ~child:2 0.1 ]
  in
  Alcotest.(check bool) "unknown endpoint" true
    (has_error "undeclared node 99" r)

let test_graph_origin_with_parent () =
  let r =
    errors ~nodes:base_nodes
      ~edges:(chain_edges @ [ Edge.v ~id:2 ~parents:[ 1 ] ~child:0 0.1 ])
  in
  Alcotest.(check bool) "origin has parent" true
    (has_error "security-origin node 0 has an incoming edge" r)

let test_graph_cycle () =
  let nodes = base_nodes @ [ internal 3; internal 4 ] in
  let edges =
    chain_edges
    @ [
        Edge.v ~id:2 ~parents:[ 3 ] ~child:4 0.5;
        Edge.v ~id:3 ~parents:[ 4 ] ~child:3 0.5;
      ]
  in
  let r = errors ~nodes ~edges in
  Alcotest.(check bool) "cycle detected" true
    (has_error "cycle through nodes" r)

let test_graph_requires_observation () =
  let r =
    errors
      ~nodes:[ node 0 "v" Node.Victim_origin; internal 1 ]
      ~edges:[ Edge.v ~id:0 ~parents:[ 0 ] ~child:1 1.0 ]
  in
  Alcotest.(check bool) "no observation" true
    (has_error "no observation node" r)

let test_graph_requires_victim () =
  let r =
    errors
      ~nodes:[ node 0 "a" Node.Attacker_origin; node 1 "o" Node.Observation ]
      ~edges:[ Edge.v ~id:0 ~parents:[ 0 ] ~child:1 1.0 ]
  in
  Alcotest.(check bool) "no victim origin" true
    (has_error "no victim security-origin node" r)

let test_graph_duplicate_child () =
  let r =
    errors ~nodes:base_nodes
      ~edges:(chain_edges @ [ Edge.v ~id:2 ~parents:[ 0 ] ~child:2 0.3 ])
  in
  Alcotest.(check bool) "two defining edges" true
    (has_error "node 2 is the child of more than one edge" r)

let test_graph_multiple_errors () =
  let r =
    errors
      ~nodes:[ node 0 "v" Node.Victim_origin; node 0 "dup" Node.Internal ]
      ~edges:[ Edge.v ~id:0 ~parents:[ 42 ] ~child:0 1.0 ]
  in
  Alcotest.(check bool) "duplicate reported" true (has_error "duplicate node id 0" r);
  Alcotest.(check bool) "unknown reported" true (has_error "undeclared node 42" r)

let test_create_exn_raises () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Graph.create_exn ~nodes:[] ~edges:[]);
       false
     with Invalid_argument _ -> true)

(* --- Structure -------------------------------------------------------- *)

let test_accessors () =
  let g = figure2 () in
  Alcotest.(check int) "victim origins" 1 (List.length (Graph.victim_origins g));
  Alcotest.(check int) "attacker origins" 1
    (List.length (Graph.attacker_origins g));
  Alcotest.(check int) "observations" 1 (List.length (Graph.observations g));
  Alcotest.(check bool) "node lookup" true ((Graph.node g 10).Node.label = "K");
  Alcotest.(check bool) "missing node" true
    (try
       ignore (Graph.node g 99);
       false
     with Not_found -> true)

let test_topological_order () =
  let g = figure2 () in
  let order = Graph.topological_order g in
  Alcotest.(check int) "all nodes" (Graph.node_count g) (List.length order);
  let pos =
    List.mapi (fun i (n : Node.t) -> (n.id, i)) order |> List.to_seq
    |> Hashtbl.of_seq
  in
  List.iter
    (fun (e : Edge.t) ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "parent before child" true
            (Hashtbl.find pos p < Hashtbl.find pos e.child))
        e.parents)
    (Graph.edges g)

let test_reachability () =
  let g = figure2 () in
  let fwd = Graph.reachable_from g [ 0 ] in
  Alcotest.(check bool) "A reaches K" true (Hashtbl.mem fwd 10);
  Alcotest.(check bool) "A does not reach J" false (Hashtbl.mem fwd 6);
  let bwd = Graph.co_reachable g [ 10 ] in
  Alcotest.(check bool) "K co-reaches I" true (Hashtbl.mem bwd 5);
  Alcotest.(check bool) "K does not co-reach D" false (Hashtbl.mem bwd 3)

let test_tainted () =
  let g = figure2 () in
  let tainted =
    List.map (fun (n : Node.t) -> n.Node.label) (Graph.tainted_nodes g)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "taint from I"
    (List.sort compare [ "I"; "J"; "F"; "G"; "H"; "K"; "L"; "M" ])
    tainted

(* --- PAS -------------------------------------------------------------- *)

let test_pas_figure2 () =
  let g = figure2 () in
  let labels es = List.map (fun (e : Edge.t) -> e.Edge.label) es in
  Alcotest.(check (list string)) "victim path" [ "p5"; "p6"; "p7"; "p9" ]
    (labels (Pas.victim_critical_edges g));
  Alcotest.(check (list string)) "attacker path"
    [ "p1"; "p4"; "p6"; "p7"; "p9" ]
    (labels (Pas.attacker_critical_edges g));
  Alcotest.(check (list string)) "union"
    [ "p1"; "p4"; "p5"; "p6"; "p7"; "p9" ]
    (labels (Pas.security_critical_edges g));
  Alcotest.(check (float 1e-12)) "PAS" (0.5 *. 0.25 *. 0.5) (Pas.pas g)

let test_pas_critical_nodes () =
  let g = figure2 () in
  let names =
    List.map (fun (n : Node.t) -> n.Node.label) (Pas.security_critical_nodes g)
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected names))
    [ "A"; "B"; "E"; "I"; "J"; "F"; "G"; "K" ];
  Alcotest.(check bool) "C excluded" false (List.mem "C" names)

let test_pas_no_leak_path () =
  (* Victim origin disconnected from the observation: PAS = 0. *)
  let nodes =
    [
      node 0 "v" Node.Victim_origin;
      node 1 "a" Node.Attacker_origin;
      node 2 "x" Node.Internal;
      node 3 "obs" Node.Observation;
    ]
  in
  let edges =
    [
      Edge.v ~id:0 ~parents:[ 0 ] ~child:2 1.0;
      Edge.v ~id:1 ~parents:[ 1 ] ~child:3 1.0;
    ]
  in
  let g = Graph.create_exn ~nodes ~edges in
  Alcotest.(check (float 0.)) "PAS 0" 0. (Pas.pas g)

let test_pas_no_attacker_origin () =
  (* Collision-style graph: no attacker origin at all. *)
  let nodes =
    [ node 0 "v" Node.Victim_origin; internal 1; node 2 "obs" Node.Observation ]
  in
  let edges =
    [
      Edge.v ~id:0 ~parents:[ 0 ] ~child:1 0.4;
      Edge.v ~id:1 ~parents:[ 1 ] ~child:2 0.5;
    ]
  in
  let g = Graph.create_exn ~nodes ~edges in
  Alcotest.(check int) "no attacker path" 0
    (List.length (Pas.attacker_critical_edges g));
  Alcotest.(check (float 1e-12)) "PAS" 0.2 (Pas.pas g)

(* Random layered DAG generator for property tests. *)
let random_graph seed =
  let rng = Random.State.make [| seed |] in
  let n_internal = 3 + Random.State.int rng 8 in
  let nodes =
    node 0 "v" Node.Victim_origin
    :: node 1 "a" Node.Attacker_origin
    :: node 2 "obs" Node.Observation
    :: List.init n_internal (fun i -> internal (3 + i))
  in
  (* Edges only from lower ids to higher ids (plus into the observation),
     guaranteeing acyclicity; the observation node 2 is treated as the
     highest node. *)
  let order i = if i = 2 then 1000 else i in
  let edges = ref [] in
  let eid = ref 0 in
  let candidates = 3 + n_internal in
  for child = 3 to candidates - 1 do
    let possible = List.filter (fun p -> order p < order child) [ 0; 1 ] in
    let internal_parents =
      List.filter (fun p -> p >= 3 && p < child) (List.init candidates Fun.id)
    in
    let all = possible @ internal_parents in
    if all <> [] && Random.State.bool rng then begin
      let k = 1 + Random.State.int rng (Stdlib.min 2 (List.length all)) in
      let parents =
        List.sort_uniq compare
          (List.init k (fun _ -> List.nth all (Random.State.int rng (List.length all))))
      in
      edges :=
        Edge.v ~id:!eid ~parents ~child (Random.State.float rng 1.0) :: !edges;
      incr eid
    end
  done;
  (* Connect something to the observation. *)
  let obs_parent = 3 + Random.State.int rng n_internal in
  edges := Edge.v ~id:!eid ~parents:[ obs_parent ] ~child:2 0.9 :: !edges;
  Graph.create_exn ~nodes ~edges:!edges

let prop_pas_in_unit_interval =
  qtest ~count:300 "PAS lies in [0,1] on random DAGs" QCheck.(int_range 0 10000)
    (fun seed ->
      let g = random_graph seed in
      let p = Pas.pas g in
      p >= 0. && p <= 1.)

let prop_pas_product_equality =
  qtest ~count:300 "PAS = product of critical-edge probabilities or 0"
    QCheck.(int_range 0 10000) (fun seed ->
      let g = random_graph seed in
      let p = Pas.pas g in
      if Pas.victim_critical_edges g = [] then p = 0.
      else begin
        let product =
          List.fold_left
            (fun acc (e : Edge.t) -> acc *. e.Edge.prob)
            1.
            (Pas.security_critical_edges g)
        in
        Float.abs (p -. product) < 1e-12
      end)

let prop_topo_valid =
  qtest ~count:300 "topological order respects edges" QCheck.(int_range 0 10000)
    (fun seed ->
      let g = random_graph seed in
      let pos = Hashtbl.create 16 in
      List.iteri
        (fun i (n : Node.t) -> Hashtbl.replace pos n.Node.id i)
        (Graph.topological_order g);
      List.for_all
        (fun (e : Edge.t) ->
          List.for_all
            (fun p -> Hashtbl.find pos p < Hashtbl.find pos e.Edge.child)
            e.Edge.parents)
        (Graph.edges g))

(* Brute-force oracle for the security-critical edge set: enumerate all
   directed paths (DFS over the hyper-edges) from each origin to each
   observation and collect every edge on any such path. The production
   implementation uses closure intersection; they must agree. *)
let critical_edges_brute_force g =
  let edges = Graph.edges g in
  let obs =
    List.map (fun (n : Node.t) -> n.Node.id) (Graph.observations g)
  in
  let origins =
    List.map
      (fun (n : Node.t) -> n.Node.id)
      (Graph.victim_origins g @ Graph.attacker_origins g)
  in
  (* From [node], the set of edges on some path reaching an observation. *)
  let memo = Hashtbl.create 16 in
  let rec edges_to_obs node =
    match Hashtbl.find_opt memo node with
    | Some r -> r
    | None ->
      Hashtbl.replace memo node None;  (* acyclic, but be safe *)
      let out =
        List.filter (fun (e : Edge.t) -> List.mem node e.Edge.parents) edges
      in
      let result =
        List.fold_left
          (fun acc (e : Edge.t) ->
            let tail =
              if List.mem e.Edge.child obs then Some [ e.Edge.id ]
              else begin
                match edges_to_obs e.Edge.child with
                | Some sub -> Some (e.Edge.id :: sub)
                | None -> None
              end
            in
            match tail with
            | Some ids -> ids @ acc
            | None -> acc)
          [] out
      in
      let result = if result = [] then None else Some result in
      Hashtbl.replace memo node result;
      result
  in
  origins
  |> List.concat_map (fun o -> Option.value ~default:[] (edges_to_obs o))
  |> List.sort_uniq Int.compare

let prop_critical_edges_match_brute_force =
  qtest ~count:500 "closure method equals brute-force path enumeration"
    QCheck.(int_range 0 100000) (fun seed ->
      let g = random_graph seed in
      let fast =
        List.map (fun (e : Edge.t) -> e.Edge.id) (Pas.security_critical_edges g)
      in
      fast = critical_edges_brute_force g)

let test_brute_force_on_figure2 () =
  let g = figure2 () in
  Alcotest.(check (list int)) "figure 2 edge ids" [ 1; 4; 5; 6; 7; 9 ]
    (critical_edges_brute_force g)

(* --- Builder ---------------------------------------------------------- *)

let test_builder () =
  let b = Builder.create () in
  let v = Builder.node b ~label:"v" ~role:Node.Victim_origin in
  let o = Builder.node b ~label:"o" ~role:Node.Observation in
  Alcotest.(check int) "sequential ids" 1 o;
  let _ = Builder.edge b ~label:"e" ~parents:[ v ] ~child:o 0.5 in
  let g = Builder.finish_exn b in
  Alcotest.(check (float 1e-12)) "pas" 0.5 (Pas.pas g);
  (* The builder can keep growing; finish snapshots. *)
  let x = Builder.node b ~label:"x" ~role:Node.Internal in
  let _ = Builder.edge b ~parents:[ v ] ~child:x 0.1 in
  let g2 = Builder.finish_exn b in
  Alcotest.(check int) "extended" 3 (Graph.node_count g2);
  Alcotest.(check int) "snapshot unchanged" 2 (Graph.node_count g)

let test_builder_invalid () =
  let b = Builder.create () in
  let v = Builder.node b ~label:"v" ~role:Node.Victim_origin in
  Alcotest.(check bool) "bad prob raises" true
    (try
       ignore (Builder.edge b ~parents:[ v ] ~child:v 2.0);
       false
     with Invalid_argument _ -> true)

(* --- Dot --------------------------------------------------------------- *)

let test_dot () =
  let g = figure2 () in
  let s = Dot.to_string ~name:"fig2" g in
  Alcotest.(check bool) "digraph header" true
    (String.length s > 0
    && String.sub s 0 14 = "digraph \"fig2\"");
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "bold critical edge" true (contains "style=bold");
  Alcotest.(check bool) "victim origin glyph" true (contains "doublecircle");
  Alcotest.(check bool) "multi-parent join" true (contains "shape=point");
  Alcotest.(check bool) "balanced braces" true
    (String.fold_left (fun acc c -> if c = '{' then acc + 1 else if c = '}' then acc - 1 else acc) 0 s
     = 0)

let () =
  Alcotest.run "core"
    [
      ( "node & edge",
        [
          Alcotest.test_case "node roles" `Quick test_node_roles;
          Alcotest.test_case "edge validation" `Quick test_edge_validation;
        ] );
      ( "graph validation",
        [
          Alcotest.test_case "valid chain" `Quick test_graph_valid;
          Alcotest.test_case "duplicate node" `Quick test_graph_duplicate_node;
          Alcotest.test_case "duplicate edge" `Quick test_graph_duplicate_edge;
          Alcotest.test_case "unknown node" `Quick test_graph_unknown_node;
          Alcotest.test_case "origin with parent" `Quick test_graph_origin_with_parent;
          Alcotest.test_case "cycle" `Quick test_graph_cycle;
          Alcotest.test_case "needs observation" `Quick test_graph_requires_observation;
          Alcotest.test_case "needs victim" `Quick test_graph_requires_victim;
          Alcotest.test_case "duplicate child" `Quick test_graph_duplicate_child;
          Alcotest.test_case "multiple errors" `Quick test_graph_multiple_errors;
          Alcotest.test_case "create_exn raises" `Quick test_create_exn_raises;
        ] );
      ( "structure",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "tainted nodes" `Quick test_tainted;
          prop_topo_valid;
        ] );
      ( "pas",
        [
          Alcotest.test_case "figure 2" `Quick test_pas_figure2;
          Alcotest.test_case "critical nodes" `Quick test_pas_critical_nodes;
          Alcotest.test_case "no leak path" `Quick test_pas_no_leak_path;
          Alcotest.test_case "no attacker origin" `Quick test_pas_no_attacker_origin;
          prop_pas_in_unit_interval;
          prop_pas_product_equality;
          prop_critical_edges_match_brute_force;
          Alcotest.test_case "brute force on figure 2" `Quick
            test_brute_force_on_figure2;
        ] );
      ( "builder",
        [
          Alcotest.test_case "builder basics" `Quick test_builder;
          Alcotest.test_case "builder invalid" `Quick test_builder_invalid;
        ] );
      ("dot", [ Alcotest.test_case "dot output" `Quick test_dot ]);
    ]
