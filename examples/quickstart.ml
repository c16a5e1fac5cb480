(* Quickstart: three processes share a light-weight group.

   Shows the Table 1 interface end to end: join, view installation,
   virtually synchronous send/deliver, and a voluntary leave.  Run with:

     dune exec examples/quickstart.exe
*)

open Plwg_sim
open Plwg_vsync.Types
module Service = Plwg.Service
module Stack = Plwg_harness.Stack

type Payload.t += Chat of string

let () =
  (* a simulated cluster: 3 application nodes + 2 naming replicas *)
  let callbacks node =
    {
      Service.on_view =
        (fun group view ->
          Format.printf "[n%d] view of %a: %a@." node Gid.pp group Node_id.pp_list view.View.members);
      Service.on_data =
        (fun group ~src payload ->
          match payload with
          | Chat text -> Format.printf "[n%d] %a <%a> %s@." node Gid.pp group Node_id.pp src text
          | _ -> ());
    }
  in
  let stack = Stack.create ~mode:Stack.Dynamic ~callbacks ~seed:1 ~n_app:3 () in
  let services = stack.Stack.services in

  (* mint a group id and have everyone join *)
  let room = Service.fresh_gid services.(0) in
  Format.printf "== three processes join light-weight group %a@." Gid.pp room;
  Array.iter (fun service -> Service.join service room) services;
  Stack.run stack (Time.sec 8);

  Format.printf "== n0 multicasts two messages (virtually synchronous, FIFO)@.";
  Service.send services.(0) room (Chat "hello, group");
  Service.send services.(0) room (Chat "message two");
  Stack.run stack (Time.sec 1);

  Format.printf "== n1 answers@.";
  Service.send services.(1) room (Chat "hi n0!");
  Stack.run stack (Time.sec 1);

  Format.printf "== n2 leaves; the survivors install a smaller view@.";
  Service.leave services.(2) room;
  Stack.run stack (Time.sec 4);

  Format.printf "== final state@.";
  (match Service.view_of services.(0) room with
  | Some view -> Format.printf "members: %a@." Node_id.pp_list view.View.members
  | None -> Format.printf "no view@.");
  (match Service.mapping_of services.(0) room with
  | Some hwg -> Format.printf "carried by heavy-weight group %a@." Gid.pp hwg
  | None -> ());
  match Stack.check_vs stack with
  | [] -> Format.printf "virtual-synchrony invariants: OK@."
  | violations -> List.iter print_endline violations
