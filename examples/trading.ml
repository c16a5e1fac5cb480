(* Trading floor: many overlapping subject groups on few carriers.

   Modelled on the Swiss Exchange Trading System the paper cites
   (Section 1): market data is disseminated per "subject", each subject
   is one user-level group, and subjects cluster around desks that
   subscribe to similar instruments.  The dynamic LWG service maps the
   many subject groups onto a handful of heavy-weight groups.

     dune exec examples/trading.exe
*)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Service = Plwg.Service
module Stack = Plwg_harness.Stack
module Hwg = Plwg_vsync.Hwg

type Payload.t += Tick of { subject : int; price : int }

let n_traders = 8

(* two desks with distinct coverage plus one cross-desk index product *)
let equities_desk = [ 0; 1; 2; 3 ]
let bonds_desk = [ 4; 5; 6; 7 ]

let subjects =
  List.concat
    [
      List.init 6 (fun i -> (Printf.sprintf "EQ-%d" i, equities_desk));
      List.init 6 (fun i -> (Printf.sprintf "BD-%d" i, bonds_desk));
    ]

let () =
  let delivered = Array.make n_traders 0 in
  let callbacks node =
    {
      Service.no_callbacks with
      Service.on_data = (fun _ ~src:_ payload -> match payload with Tick _ -> delivered.(node) <- delivered.(node) + 1 | _ -> ());
    }
  in
  let stack = Stack.create ~mode:Stack.Dynamic ~callbacks ~seed:4 ~n_app:n_traders () in
  let services = stack.Stack.services in
  Format.printf "== %d subjects across two desks of %d traders each@." (List.length subjects) 4;
  (* subjects come online one by one, subscribed by their desk *)
  let groups =
    List.mapi
      (fun i (name, desk) ->
        let gid = Service.fresh_gid services.(List.hd desk) in
        List.iteri
          (fun j trader ->
            let delay = Time.ms ((400 * i) + (60 * j)) in
            let (_ : Sim_rt.cancel) =
              Sim_rt.after stack.Stack.engine delay (fun () -> Service.join services.(trader) gid)
            in
            ())
          desk;
        (name, gid, desk))
      subjects
  in
  Stack.run stack (Time.sec 20);

  Format.printf "== mappings after the policies settle@.";
  List.iter
    (fun (name, gid, desk) ->
      match Service.mapping_of services.(List.hd desk) gid with
      | Some hwg -> Format.printf "  subject %-6s -> carrier %a@." name Gid.pp hwg
      | None -> Format.printf "  subject %-6s -> (not mapped yet)@." name)
    groups;
  let carriers =
    List.sort_uniq Gid.compare
      (List.filter_map (fun (_, gid, desk) -> Service.mapping_of services.(List.hd desk) gid) groups)
  in
  Format.printf "== %d subject groups share %d heavy-weight groups@." (List.length groups)
    (List.length carriers);

  (* a burst of market data on every subject *)
  Format.printf "== one second of market data (20 ticks/subject)@.";
  List.iter
    (fun (_, gid, desk) ->
      let publisher = List.hd desk in
      for k = 1 to 20 do
        let (_ : Sim_rt.cancel) =
          Sim_rt.after stack.Stack.engine (Time.ms (50 * k)) (fun () ->
              Service.send services.(publisher) gid (Tick { subject = 0; price = 100 + k }))
        in
        ()
      done)
    groups;
  Stack.run stack (Time.sec 3);
  Array.iteri (fun node count -> Format.printf "  trader n%d delivered %d ticks@." node count) delivered;

  (* the equities desk picks up one bond instrument: membership drifts *)
  Format.printf "== trader n0 subscribes to BD-0 (cross-desk membership)@.";
  let _, bd0, _ = List.nth groups 6 in
  Service.join services.(0) bd0;
  Stack.run stack (Time.sec 12);
  (match Service.view_of services.(0) bd0 with
  | Some view -> Format.printf "  BD-0 members now %a@." Node_id.pp_list view.View.members
  | None -> ());
  let switches = Array.fold_left (fun acc s -> acc + Service.switch_count s) 0 services in
  Format.printf "== switch-protocol runs so far: %d@." switches;
  match Stack.check_vs stack with
  | [] -> Format.printf "virtual-synchrony invariants: OK@."
  | violations -> List.iter print_endline violations
