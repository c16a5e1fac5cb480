(* End-to-end tests of the paper's four-step partition reconciliation
   (Section 6): naming-service conflict detection, switch to the highest
   HWG id, local peer discovery, and the merge-views protocol. *)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Service = Plwg.Service
module Stack = Plwg_harness.Stack
module Hwg = Plwg_vsync.Hwg
module Db = Plwg_naming.Db
module Server = Plwg_naming.Server

type Payload.t += App of int

let lwg ?(seq = 1) origin = { Gid.seq = 1_000_000 + seq; origin }

let make ?(seed = 77) ~n () =
  let log : (Node_id.t * Gid.t * Node_id.t * int) list ref = ref [] in
  let callbacks node =
    {
      Service.no_callbacks with
      Service.on_data =
        (fun group ~src payload -> match payload with App v -> log := (node, group, src, v) :: !log | _ -> ());
    }
  in
  let stack = Stack.create ~mode:Stack.Dynamic ~callbacks ~seed ~n_app:n () in
  (stack, log)

let check_invariants stack =
  Alcotest.(check (list string)) "vs invariants" [] (Stack.check_vs stack)

let view_at stack node group =
  match Service.view_of stack.Stack.services.(node) group with
  | Some v -> v
  | None -> Alcotest.failf "node %d has no view of %s" node (Gid.to_string group)

let split stack =
  let s0 = List.nth stack.Stack.server_nodes 0 and s1 = List.nth stack.Stack.server_nodes 1 in
  Sim_rt.set_partition stack.Stack.engine [ [ 0; 1; s0 ]; [ 2; 3; s1 ] ]

(* The full cycle: diverging mappings in concurrent partitions are
   reconciled after the heal onto the HWG with the highest group id. *)
let test_reconcile_conflicting_mappings () =
  let stack, log = make ~n:4 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  let h1 = Option.get (Service.mapping_of stack.Stack.services.(0) group) in
  split stack;
  Stack.run stack (Time.sec 6);
  (* side B re-homes its concurrent view onto a fresh HWG: its id is
     larger than h1's, so it must win the reconciliation *)
  let h2 = Hwg.fresh_gid (Service.hwg_service stack.Stack.services.(2)) in
  Alcotest.(check bool) "fresh gid larger" true (Gid.compare h2 h1 > 0);
  Service.request_switch stack.Stack.services.(2) group h2;
  Stack.run stack (Time.sec 8);
  Alcotest.(check bool) "side B moved" true (Service.mapping_of stack.Stack.services.(2) group = Some h2);
  Alcotest.(check bool) "side A stayed" true (Service.mapping_of stack.Stack.services.(0) group = Some h1);
  (* heal: step 1 (ns callback), step 2 (switch to max gid), step 3
     (local discovery), step 4 (merge-views) must all run *)
  Sim_rt.heal stack.Stack.engine;
  Stack.run stack (Time.sec 25);
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d on winner hwg" node)
        true
        (Service.mapping_of stack.Stack.services.(node) group = Some h2))
    [ 0; 1; 2; 3 ];
  Alcotest.(check (list int)) "merged membership" [ 0; 1; 2; 3 ] (view_at stack 0 group).View.members;
  (* the naming service converged to a single live mapping *)
  List.iter
    (fun server ->
      let db = Server.db server in
      Alcotest.(check bool) "no conflict left" false (Db.conflicting db group);
      match Db.read db group with
      | [ entry ] -> Alcotest.(check bool) "single mapping to winner" true (Gid.equal entry.Db.hwg h2)
      | other -> Alcotest.failf "expected 1 live entry, got %d" (List.length other))
    stack.Stack.ns_servers;
  (* the merged group carries traffic end to end *)
  Service.send stack.Stack.services.(1) group (App 7);
  Stack.run stack (Time.sec 2);
  List.iter
    (fun node ->
      let got = List.filter (fun (n, g, _, _) -> n = node && Gid.equal g group) !log in
      Alcotest.(check bool) (Printf.sprintf "node %d got post-merge data" node) true
        (List.exists (fun (_, _, src, v) -> src = 1 && v = 7) got))
    [ 0; 1; 2; 3 ];
  check_invariants stack

(* The paper's Figure 3 criss-cross: two LWGs swap mappings across the
   partition; reconciliation must fix both independently. *)
let test_reconcile_crisscross () =
  let stack, _ = make ~n:4 ~seed:78 () in
  let a = lwg ~seq:1 0 and b = lwg ~seq:2 0 in
  Array.iter
    (fun service ->
      Service.join service a;
      Service.join service b)
    stack.Stack.services;
  Stack.run stack (Time.sec 12);
  split stack;
  Stack.run stack (Time.sec 6);
  (* side A re-homes a, side B re-homes b: now each LWG has two live
     mappings in the (partitioned) naming service *)
  let ha = Hwg.fresh_gid (Service.hwg_service stack.Stack.services.(0)) in
  let hb = Hwg.fresh_gid (Service.hwg_service stack.Stack.services.(2)) in
  Service.request_switch stack.Stack.services.(0) a ha;
  Service.request_switch stack.Stack.services.(2) b hb;
  Stack.run stack (Time.sec 8);
  Sim_rt.heal stack.Stack.engine;
  Stack.run stack (Time.sec 30);
  Alcotest.(check bool) "a converged" true (Stack.lwg_converged stack a);
  Alcotest.(check bool) "b converged" true (Stack.lwg_converged stack b);
  Alcotest.(check (list int)) "a members" [ 0; 1; 2; 3 ] (view_at stack 0 a).View.members;
  Alcotest.(check (list int)) "b members" [ 0; 1; 2; 3 ] (view_at stack 0 b).View.members;
  List.iter
    (fun server ->
      let db = Server.db server in
      Alcotest.(check bool) "a resolved" false (Db.conflicting db a);
      Alcotest.(check bool) "b resolved" false (Db.conflicting db b))
    stack.Stack.ns_servers;
  check_invariants stack

(* Local peer discovery through data traffic alone (Section 6.3): a
   DATA message tagged with a concurrent view id must trigger the
   merge even before the periodic gossip does. *)
let test_merge_triggered_by_traffic () =
  let stack, log = make ~n:4 ~seed:79 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  split stack;
  Stack.run stack (Time.sec 6);
  Sim_rt.heal stack.Stack.engine;
  (* start sending immediately after the heal: traffic races the gossip *)
  for i = 1 to 20 do
    Service.send stack.Stack.services.(0) group (App i);
    Service.send stack.Stack.services.(2) group (App (100 + i))
  done;
  Stack.run stack (Time.sec 20);
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  (* post-merge traffic flows everywhere *)
  Service.send stack.Stack.services.(3) group (App 999);
  Stack.run stack (Time.sec 2);
  List.iter
    (fun node ->
      Alcotest.(check bool) (Printf.sprintf "node %d sees merged group" node) true
        (List.exists (fun (n, g, src, v) -> n = node && Gid.equal g group && src = 3 && v = 999) !log))
    [ 0; 1; 2 ];
  check_invariants stack

(* Repeated partition/heal cycles must keep converging and must not
   leak stale views into the naming service. *)
let test_repeated_partition_cycles () =
  let stack, _ = make ~n:4 ~seed:80 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  for _cycle = 1 to 3 do
    split stack;
    Stack.run stack (Time.sec 6);
    Sim_rt.heal stack.Stack.engine;
    Stack.run stack (Time.sec 16)
  done;
  Alcotest.(check bool) "converged after 3 cycles" true (Stack.lwg_converged stack group);
  Alcotest.(check (list int)) "full membership" [ 0; 1; 2; 3 ] (view_at stack 0 group).View.members;
  List.iter
    (fun server ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d holds one live entry" (Server.node server))
        1
        (List.length (Db.read (Server.db server) group)))
    stack.Stack.ns_servers;
  check_invariants stack

(* Merge counting: the merge-views protocol ran at the members. *)
let test_merge_counted () =
  let stack, _ = make ~n:4 ~seed:81 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  split stack;
  Stack.run stack (Time.sec 6);
  Sim_rt.heal stack.Stack.engine;
  Stack.run stack (Time.sec 16);
  let total = Array.fold_left (fun acc s -> acc + Service.merge_count s) 0 stack.Stack.services in
  Alcotest.(check bool) "merges recorded" true (total > 0);
  check_invariants stack

(* Three-way partition: every side forms its own view; the heal merges
   all three lineages. *)
let test_three_way_partition () =
  let stack, _ = make ~n:6 ~seed:82 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 12);
  let s0 = List.nth stack.Stack.server_nodes 0 and s1 = List.nth stack.Stack.server_nodes 1 in
  Sim_rt.set_partition stack.Stack.engine [ [ 0; 1; s0 ]; [ 2; 3; s1 ]; [ 4; 5 ] ];
  Stack.run stack (Time.sec 8);
  Alcotest.(check (list int)) "side 1" [ 0; 1 ] (view_at stack 0 group).View.members;
  Alcotest.(check (list int)) "side 2" [ 2; 3 ] (view_at stack 2 group).View.members;
  Alcotest.(check (list int)) "side 3" [ 4; 5 ] (view_at stack 4 group).View.members;
  Sim_rt.heal stack.Stack.engine;
  Stack.run stack (Time.sec 25);
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  Alcotest.(check (list int)) "all six" [ 0; 1; 2; 3; 4; 5 ] (view_at stack 5 group).View.members;
  check_invariants stack

let suite =
  [
    Alcotest.test_case "reconcile conflicting mappings" `Quick test_reconcile_conflicting_mappings;
    Alcotest.test_case "reconcile criss-cross" `Quick test_reconcile_crisscross;
    Alcotest.test_case "merge triggered by traffic" `Quick test_merge_triggered_by_traffic;
    Alcotest.test_case "repeated partition cycles" `Quick test_repeated_partition_cycles;
    Alcotest.test_case "merge counted" `Quick test_merge_counted;
    Alcotest.test_case "three-way partition" `Quick test_three_way_partition;
  ]
