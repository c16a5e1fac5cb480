(* Partitionable operation, narrated: the paper's headline scenario.

   A group spans two sites.  The network partitions; both sides keep
   operating in concurrent views and even make different mapping
   decisions.  When the partition heals, the four-step reconciliation
   of Section 6 runs: the naming service detects the inconsistent
   mappings (MULTIPLE-MAPPINGS), the coordinators switch to the HWG
   with the highest id, local peer discovery finds the concurrent
   views, and the merge-views protocol fuses them in one flush.

     dune exec examples/partition_heal.exe
*)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Service = Plwg.Service
module Stack = Plwg_harness.Stack
module Hwg = Plwg_vsync.Hwg
module Server = Plwg_naming.Server
module Db = Plwg_naming.Db

type Payload.t += Note of string

let () =
  let stamp stack = Format.asprintf "%a" Time.pp (Sim_rt.now stack.Stack.engine) in
  let callbacks node =
    {
      Service.on_view =
        (fun group view ->
          Format.printf "      [n%d] installs %a view %a %a@." node Gid.pp group View_id.pp view.View.id
            Node_id.pp_list view.View.members);
      Service.on_data =
        (fun _ ~src payload ->
          match payload with Note text -> Format.printf "      [n%d] <%a> %s@." node Node_id.pp src text | _ -> ());
    }
  in
  let stack = Stack.create ~mode:Stack.Dynamic ~callbacks ~seed:33 ~n_app:4 () in
  let services = stack.Stack.services in
  let group = Service.fresh_gid services.(0) in

  Format.printf "== t=%s: all four nodes join %a@." (stamp stack) Gid.pp group;
  Array.iter (fun service -> Service.join service group) services;
  Stack.run stack (Time.sec 10);

  Format.printf "== t=%s: the network partitions into {n0,n1} and {n2,n3}@." (stamp stack);
  let s0 = List.nth stack.Stack.server_nodes 0 and s1 = List.nth stack.Stack.server_nodes 1 in
  Sim_rt.set_partition stack.Stack.engine [ [ 0; 1; s0 ]; [ 2; 3; s1 ] ];
  Stack.run stack (Time.sec 6);

  Format.printf "== t=%s: both sides keep working in concurrent views@." (stamp stack);
  Service.send services.(0) group (Note "written on side A");
  Service.send services.(2) group (Note "written on side B");
  Stack.run stack (Time.sec 1);

  Format.printf "== t=%s: side B re-homes the group onto a fresh HWG (higher gid)@." (stamp stack);
  let target = Hwg.fresh_gid (Service.hwg_service services.(2)) in
  Service.request_switch services.(2) group target;
  Stack.run stack (Time.sec 8);
  let show_mappings () =
    Array.iteri
      (fun node service ->
        match Service.mapping_of service group with
        | Some h -> Format.printf "      n%d maps %a -> %a@." node Gid.pp group Gid.pp h
        | None -> ())
      services
  in
  show_mappings ();

  Format.printf "== t=%s: the partition heals; reconciliation runs@." (stamp stack);
  Sim_rt.heal stack.Stack.engine;
  Stack.run stack (Time.sec 20);
  show_mappings ();
  List.iter
    (fun server ->
      Format.printf "      naming replica %d: %a" (Server.node server) Db.pp (Server.db server))
    stack.Stack.ns_servers;

  Format.printf "== t=%s: the merged group carries traffic again@." (stamp stack);
  Service.send services.(1) group (Note "everyone sees this");
  Stack.run stack (Time.sec 1);

  let entries = Plwg_harness.Trace_check.entries stack.Stack.obs.Plwg_obs.sink in
  Format.printf "== the trace recorded the Section-6 reconciliation sequence:@.";
  List.iter
    (fun step -> Format.printf "      %s@." (Plwg_obs.Event.reconcile_step_to_string step))
    (Plwg_harness.Trace_check.reconcile_sequence entries);
  let n_nodes = Array.length services + List.length stack.Stack.server_nodes in
  match Plwg_harness.Trace_check.check_all ~n_nodes entries with
  | [] -> Format.printf "trace invariants (virtual synchrony, flush pairing, no cross-partition DATA): OK@."
  | violations -> List.iter print_endline violations
