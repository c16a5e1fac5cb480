type t = {
  n : int;
  component : int array; (* node -> connectivity class id *)
  alive : bool array;
  mutable generation : int;
  (* [component_of] memo: per node, the member list computed at
     [comp_cache_gen].  Every mutation bumps [generation], so a stale
     entry can never be served. *)
  comp_cache : Node_id.t list array;
  comp_cache_gen : int array;
  nodes : Node_id.t list; (* 0..n-1; membership is fixed, built once *)
}

let create ~n_nodes =
  if n_nodes <= 0 then invalid_arg "Topology.create: n_nodes must be positive";
  {
    n = n_nodes;
    component = Array.make n_nodes 0;
    alive = Array.make n_nodes true;
    generation = 0;
    comp_cache = Array.make n_nodes [];
    comp_cache_gen = Array.make n_nodes (-1);
    nodes = List.init n_nodes (fun i -> i);
  }

let n_nodes t = t.n

let all_nodes t = t.nodes

let check_node t node =
  if node < 0 || node >= t.n then invalid_arg (Printf.sprintf "Topology: node %d out of range" node)

let set_partition t classes =
  let seen = Array.make t.n false in
  List.iteri
    (fun class_id members ->
      List.iter
        (fun node ->
          check_node t node;
          if seen.(node) then invalid_arg (Printf.sprintf "Topology.set_partition: node %d listed twice" node);
          seen.(node) <- true;
          t.component.(node) <- class_id)
        members)
    classes;
  Array.iteri
    (fun node covered ->
      if not covered then invalid_arg (Printf.sprintf "Topology.set_partition: node %d not covered" node))
    seen;
  t.generation <- t.generation + 1

let heal t =
  Array.fill t.component 0 t.n 0;
  t.generation <- t.generation + 1

let crash t node =
  check_node t node;
  t.alive.(node) <- false;
  t.generation <- t.generation + 1

let recover t node =
  check_node t node;
  t.alive.(node) <- true;
  t.generation <- t.generation + 1

let is_alive t node =
  check_node t node;
  t.alive.(node)

let reachable t a b =
  check_node t a;
  check_node t b;
  t.alive.(a) && t.alive.(b) && t.component.(a) = t.component.(b)

let component_of t node =
  check_node t node;
  if not t.alive.(node) then []
  else if Int.equal t.comp_cache_gen.(node) t.generation then t.comp_cache.(node)
  else begin
    let members =
      List.filter (fun other -> t.alive.(other) && Int.equal t.component.(other) t.component.(node)) (all_nodes t)
    in
    (* the list is identical for every member; fill their slots too so a
       sweep over all nodes rebuilds each class once, not once per node *)
    List.iter
      (fun member ->
        t.comp_cache.(member) <- members;
        t.comp_cache_gen.(member) <- t.generation)
      members;
    members
  end
