open Plwg_sim
open Types

(* One recorder may hook the nodes of every domain of a parallel
   backend, so events are pushed with a compare-and-set: no lock, and
   each node's events stay in the order its executor produced them. *)
type t = {
  trace : (Time.t * Hwg.event) list Atomic.t
      [@shared_cell "pushed by compare-and-set from every node's executor; read after the run"];
      (* newest first *)
}

let create () = { trace = Atomic.make [] }

let rec hook t time event =
  let seen = Atomic.get t.trace in
  if not (Atomic.compare_and_set t.trace seen ((time, event) :: seen)) then hook t time event

let events t = List.rev (Atomic.get t.trace)

let installs t =
  List.filter_map (function _, Hwg.Installed { node; view } -> Some (node, view) | _ -> None) (events t)

let deliveries t =
  List.filter_map
    (function
      | _, Hwg.Delivered { node; group; view_id; origin; local_id } -> Some (node, group, view_id, origin, local_id)
      | _ -> None)
    (events t)

let installs_of t ~node ~group =
  List.filter_map
    (fun (n, view) -> if Node_id.equal n node && Gid.equal view.View.group group then Some view else None)
    (installs t)

let check_self_inclusion t =
  List.filter_map
    (fun (node, view) ->
      if View.mem node view then None
      else Some (Format.asprintf "%a installed %a which does not contain it" Node_id.pp node View.pp view))
    (installs t)

let check_view_agreement t =
  let tbl : (View_id.t * Gid.t, View.t) Hashtbl.t = Hashtbl.create 64 in
  List.filter_map
    (fun (node, view) ->
      let key = (view.View.id, view.View.group) in
      match Hashtbl.find_opt tbl key with
      | None ->
          Hashtbl.add tbl key view;
          None
      | Some first ->
          if List.equal Node_id.equal first.View.members view.View.members then None
          else
            Some
              (Format.asprintf "view %a of %a installed with members %a at %a but %a elsewhere" View_id.pp
                 view.View.id Gid.pp view.View.group Node_id.pp_list view.View.members Node_id.pp node
                 Node_id.pp_list first.View.members))
    (installs t)

(* Installs per (node, group), segmented at Left events: a process that
   leaves and later rejoins starts a fresh membership incarnation, and
   the per-process invariants apply within one incarnation. *)
let group_installs t =
  let open_segments : (Node_id.t * Gid.t, View.t list) Hashtbl.t = Hashtbl.create 64 in
  let closed = ref [] in
  List.iter
    (fun (_, event) ->
      match event with
      | Hwg.Installed { node; view } ->
          let key = (node, view.View.group) in
          let sofar = try Hashtbl.find open_segments key with Not_found -> [] in
          Hashtbl.replace open_segments key (view :: sofar)
      | Hwg.Left { node; group } -> (
          let key = (node, group) in
          match Hashtbl.find_opt open_segments key with
          | Some views ->
              closed := (key, List.rev views) :: !closed;
              Hashtbl.remove open_segments key
          | None -> ())
      | Hwg.Delivered _ -> ())
    (events t);
  Plwg_util.Tbl.fold_sorted
    ~cmp:(fun (na, ga) (nb, gb) ->
      let c = Node_id.compare na nb in
      if c <> 0 then c else Gid.compare ga gb)
    (fun key views acc -> (key, List.rev views) :: acc)
    open_segments !closed

let check_local_monotonicity t =
  List.concat_map
    (fun ((node, group), views) ->
      let rec walk acc = function
        | a :: (b :: _ as rest) ->
            let acc =
              if b.View.id.View_id.seq > a.View.id.View_id.seq then acc
              else
                Format.asprintf "%a/%a installed %a after %a (seq not increasing)" Node_id.pp node Gid.pp group
                  View_id.pp b.View.id View_id.pp a.View.id
                :: acc
            in
            walk acc rest
        | [ _ ] | [] -> acc
      in
      walk [] views)
    (group_installs t)

let check_view_id_unique_per_change t =
  List.concat_map
    (fun ((node, group), views) ->
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun view ->
          if Hashtbl.mem seen view.View.id then
            Some (Format.asprintf "%a/%a installed %a twice" Node_id.pp node Gid.pp group View_id.pp view.View.id)
          else begin
            Hashtbl.add seen view.View.id ();
            None
          end)
        views)
    (group_installs t)

let check_no_duplicate_delivery t =
  let seen = Hashtbl.create 256 in
  List.filter_map
    (fun (node, group, _view_id, origin, local_id) ->
      let key = (node, group, origin, local_id) in
      if Hashtbl.mem seen key then
        Some
          (Format.asprintf "%a delivered message %a/#%d of %a twice" Node_id.pp node Node_id.pp origin local_id
             Gid.pp group)
      else begin
        Hashtbl.add seen key ();
        None
      end)
    (deliveries t)

let check_fifo t =
  let last = Hashtbl.create 256 in
  List.filter_map
    (fun (node, group, _view_id, origin, local_id) ->
      let key = (node, group, origin) in
      let previous = try Hashtbl.find last key with Not_found -> -1 in
      Hashtbl.replace last key local_id;
      if local_id > previous then None
      else
        Some
          (Format.asprintf "%a delivered %a/#%d of %a after #%d (FIFO violation)" Node_id.pp node Node_id.pp origin
             local_id Gid.pp group previous))
    (deliveries t)

(* Deliveries a node made while view [v] (of group) was installed,
   identified by the view id the messages were tagged with. *)
let segment_deliveries t ~node ~group ~view_id =
  List.fold_left
    (fun acc (n, g, vid, origin, local_id) ->
      if Node_id.equal n node && Gid.equal g group && View_id.equal vid view_id then (origin, local_id) :: acc
      else acc)
    [] (deliveries t)
  |> List.sort (fun (na, la) (nb, lb) ->
       let c = Node_id.compare na nb in
       if c <> 0 then c else Int.compare la lb)

let check_virtual_synchrony t =
  (* key: (group, V.id, V'.id) for consecutive installs; value: node -> set *)
  let transitions : (Gid.t * View_id.t * View_id.t, (Node_id.t * (Node_id.t * int) list) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun ((node, group), views) ->
      let rec walk = function
        | a :: (b :: _ as rest) ->
            let key = (group, a.View.id, b.View.id) in
            let segment = segment_deliveries t ~node ~group ~view_id:a.View.id in
            let bucket = try Hashtbl.find transitions key with Not_found -> [] in
            Hashtbl.replace transitions key ((node, segment) :: bucket);
            walk rest
        | [ _ ] | [] -> ()
      in
      walk views)
    (group_installs t);
  Plwg_util.Tbl.fold_sorted
    ~cmp:(fun (ga, va, va') (gb, vb, vb') ->
      let c = Gid.compare ga gb in
      if c <> 0 then c
      else
        let c = View_id.compare va vb in
        if c <> 0 then c else View_id.compare va' vb')
    (fun (group, v, v') bucket acc ->
      match bucket with
      | [] | [ _ ] -> acc
      | (first_node, first_segment) :: rest ->
          List.fold_left
            (fun acc (node, segment) ->
              if List.equal (fun (na, la) (nb, lb) -> Node_id.equal na nb && Int.equal la lb) segment first_segment
              then acc
              else
                Format.asprintf
                  "virtual synchrony violated in %a between %a and %a: %a delivered %d messages, %a delivered %d"
                  Gid.pp group View_id.pp v View_id.pp v' Node_id.pp first_node (List.length first_segment)
                  Node_id.pp node (List.length segment)
                :: acc)
            acc rest)
    transitions []

let check_total_order t ~group =
  (* per view, per node: the order of deliveries; all must be prefix-compatible *)
  let orders : (View_id.t, (Node_id.t * (Node_id.t * int) list) list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (node, g, view_id, origin, local_id) ->
      if Gid.equal g group then begin
        let bucket = try Hashtbl.find orders view_id with Not_found -> [] in
        let bucket =
          match List.assoc_opt node bucket with
          | Some sofar -> (node, (origin, local_id) :: sofar) :: List.remove_assoc node bucket
          | None -> (node, [ (origin, local_id) ]) :: bucket
        in
        Hashtbl.replace orders view_id bucket
      end)
    (deliveries t);
  let prefix_compatible a b =
    let rec walk = function
      | (xo, xl) :: xs, (yo, yl) :: ys -> Node_id.equal xo yo && Int.equal xl yl && walk (xs, ys)
      | [], _ | _, [] -> true
    in
    walk (a, b)
  in
  Plwg_util.Tbl.fold_sorted ~cmp:View_id.compare
    (fun view_id bucket acc ->
      let sequences = List.map (fun (node, rev) -> (node, List.rev rev)) bucket in
      match sequences with
      | [] | [ _ ] -> acc
      | (first_node, first_seq) :: rest ->
          List.fold_left
            (fun acc (node, sequence) ->
              if prefix_compatible first_seq sequence then acc
              else
                Format.asprintf "total order violated in %a view %a between %a and %a" Gid.pp group View_id.pp
                  view_id Node_id.pp first_node Node_id.pp node
                :: acc)
            acc rest)
    orders []

let check_all t =
  check_self_inclusion t @ check_view_agreement t @ check_local_monotonicity t
  @ check_view_id_unique_per_change t @ check_no_duplicate_delivery t @ check_fifo t @ check_virtual_synchrony t
