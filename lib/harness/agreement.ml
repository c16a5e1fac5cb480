open Plwg_sim
open Plwg_vsync.Types

let components topology ~among =
  List.filter_map
    (fun node ->
      if Topology.is_alive topology node then
        match List.filter (fun n -> List.mem n among) (Topology.component_of topology node) with
        | first :: _ as component when Node_id.equal first node -> Some component
        | _ -> None
      else None)
    among

type verdict = Agreed | Divergent | Members_differ of Node_id.t list

let holders_agree = function
  | [] -> Agreed
  | (_, first) :: rest as holders ->
      if not (List.for_all (fun (_, v) -> View_id.equal v.View.id first.View.id) rest) then Divergent
      else if not (List.equal Node_id.equal first.View.members (List.map fst holders)) then
        Members_differ first.View.members
      else Agreed
