(* Collaboration sessions: one application, several coupled groups.

   Modelled on CCTL, the collaboration system the paper cites: each
   document session uses several groups with identical membership (chat,
   cursors, edits), so the LWG service carries a whole session on one
   heavy-weight group; when a user walks to another session the
   memberships drift apart and the policies re-map.

     dune exec examples/collaboration.exe
*)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Service = Plwg.Service
module Stack = Plwg_harness.Stack

type Payload.t += Edit of string | Cursor of int | Chat of string

let () =
  let log = ref [] in
  let callbacks node =
    {
      Service.no_callbacks with
      Service.on_data =
        (fun group ~src payload ->
          match payload with
          | Edit text -> log := Format.asprintf "n%d saw edit from %a in %a: %s" node Node_id.pp src Gid.pp group text :: !log
          | Cursor _ | Chat _ -> ()
          | _ -> ());
    }
  in
  let stack = Stack.create ~mode:Stack.Dynamic ~callbacks ~seed:9 ~n_app:6 () in
  let services = stack.Stack.services in

  (* session "design-doc": users 0,1,2; three coupled groups *)
  let doc_edits = Service.fresh_gid services.(0) in
  let doc_cursors = Service.fresh_gid services.(0) in
  let doc_chat = Service.fresh_gid services.(0) in
  (* session "retro-notes": users 3,4,5 *)
  let notes_edits = Service.fresh_gid services.(3) in
  let notes_chat = Service.fresh_gid services.(3) in
  let sessions =
    [ ([ 0; 1; 2 ], [ doc_edits; doc_cursors; doc_chat ]); ([ 3; 4; 5 ], [ notes_edits; notes_chat ]) ]
  in
  Format.printf "== two sessions open, %d groups total@."
    (List.fold_left (fun acc (_, gs) -> acc + List.length gs) 0 sessions);
  List.iter
    (fun (users, groups) ->
      List.iteri
        (fun i group ->
          List.iteri
            (fun j user ->
              let (_ : Sim_rt.cancel) =
                Sim_rt.after stack.Stack.engine
                  (Time.ms ((300 * i) + (70 * j)))
                  (fun () -> Service.join services.(user) group)
              in
              ())
            users)
        groups)
    sessions;
  Stack.run stack (Time.sec 15);

  let carrier g u = Service.mapping_of services.(u) g in
  Format.printf "== one carrier per session (groups of a session share membership)@.";
  Format.printf "  design-doc groups on: %s %s %s@."
    (match carrier doc_edits 0 with Some h -> Gid.to_string h | None -> "-")
    (match carrier doc_cursors 0 with Some h -> Gid.to_string h | None -> "-")
    (match carrier doc_chat 0 with Some h -> Gid.to_string h | None -> "-");
  Format.printf "  retro-notes groups on: %s %s@."
    (match carrier notes_edits 3 with Some h -> Gid.to_string h | None -> "-")
    (match carrier notes_chat 3 with Some h -> Gid.to_string h | None -> "-");

  Format.printf "== collaborative editing traffic@.";
  Service.send services.(0) doc_edits (Edit "s/teh/the/");
  Service.send services.(0) doc_cursors (Cursor 120);
  Service.send services.(1) doc_edits (Edit "add section 3");
  Service.send services.(1) doc_chat (Chat "looks good");
  Service.send services.(4) notes_edits (Edit "+1 on retro item");
  Stack.run stack (Time.sec 1);
  List.iter print_endline (List.rev !log);

  (* user 2 walks from design-doc to retro-notes *)
  Format.printf "== n2 moves sessions: leaves design-doc, joins retro-notes@.";
  List.iter (fun g -> Service.leave services.(2) g) [ doc_edits; doc_cursors; doc_chat ];
  List.iter (fun g -> Service.join services.(2) g) [ notes_edits; notes_chat ];
  Stack.run stack (Time.sec 12);
  (match Service.view_of services.(3) notes_edits with
  | Some view -> Format.printf "  retro-notes members now %a@." Node_id.pp_list view.View.members
  | None -> ());
  (match Service.view_of services.(0) doc_edits with
  | Some view -> Format.printf "  design-doc members now %a@." Node_id.pp_list view.View.members
  | None -> ());
  match Stack.check_vs stack with
  | [] -> Format.printf "virtual-synchrony invariants: OK@."
  | violations -> List.iter print_endline violations
