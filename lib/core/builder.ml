type t = {
  mutable nodes : Node.t list;  (* reverse declaration order *)
  mutable edges : Edge.t list;
  mutable next_node : int;
  mutable next_edge : int;
}

let create () = { nodes = []; edges = []; next_node = 0; next_edge = 0 }

let node t ~label ~role =
  let id = t.next_node in
  t.next_node <- id + 1;
  t.nodes <- Node.v ~id ~label ~role :: t.nodes;
  id

let edge t ?(label = "") ~parents ~child prob =
  let id = t.next_edge in
  t.next_edge <- id + 1;
  t.edges <- Edge.v ~id ~label ~parents ~child prob :: t.edges;
  id

let finish_exn t =
  Graph.create_exn ~nodes:(List.rev t.nodes) ~edges:(List.rev t.edges)
