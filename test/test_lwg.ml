(* Tests for the light-weight group service: joins, data transfer,
   mapping decisions, the switch protocol, baselines, and LWG-level
   virtual-synchrony invariants. *)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Service = Plwg.Service
module Stack = Plwg_harness.Stack
module Hwg = Plwg_vsync.Hwg

type Payload.t += App of int

let lwg ?(seq = 1) origin = { Gid.seq = 1_000_000 + seq; origin }

let make ?(mode = Stack.Dynamic) ?(seed = 50) ?config ~n () =
  let log : (Node_id.t * Gid.t * Node_id.t * int) list ref = ref [] in
  let callbacks node =
    {
      Service.no_callbacks with
      Service.on_data =
        (fun group ~src payload -> match payload with App v -> log := (node, group, src, v) :: !log | _ -> ());
    }
  in
  let stack = Stack.create ?config ~mode ~callbacks ~seed ~n_app:n () in
  (stack, log)

let received log ~node ~group =
  List.rev
    (List.filter_map (fun (n, g, src, v) -> if n = node && Gid.equal g group then Some (src, v) else None) !log)

let check_invariants stack =
  Alcotest.(check (list string)) "vs invariants" [] (Stack.check_vs stack)

let view_in services node group =
  match Service.view_of services.(node) group with
  | Some v -> v
  | None -> Alcotest.failf "node %d has no view of %s" node (Gid.to_string group)

let view_at stack node group = view_in stack.Stack.services node group

(* ---------------- basics (Dynamic mode) ---------------- *)

let test_create_singleton () =
  let stack, _ = make ~n:2 () in
  let group = lwg 0 in
  Service.join stack.Stack.services.(0) group;
  Stack.run stack (Time.sec 6);
  Alcotest.(check (list int)) "singleton" [ 0 ] (view_at stack 0 group).View.members;
  Alcotest.(check bool) "has a mapping" true (Service.mapping_of stack.Stack.services.(0) group <> None);
  check_invariants stack

let test_join_existing () =
  let stack, _ = make ~n:4 () in
  let group = lwg 0 in
  Service.join stack.Stack.services.(0) group;
  Stack.run stack (Time.sec 6);
  Service.join stack.Stack.services.(1) group;
  Service.join stack.Stack.services.(2) group;
  Stack.run stack (Time.sec 6);
  Alcotest.(check (list int)) "three members" [ 0; 1; 2 ] (view_at stack 1 group).View.members;
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  (* all share one mapping *)
  let mapping node = Service.mapping_of stack.Stack.services.(node) group in
  Alcotest.(check bool) "same hwg" true (mapping 0 = mapping 1 && mapping 1 = mapping 2);
  check_invariants stack

let test_concurrent_creation () =
  let stack, _ = make ~n:4 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  Alcotest.(check (list int)) "all four" [ 0; 1; 2; 3 ] (view_at stack 0 group).View.members;
  check_invariants stack

let test_send_deliver_fifo () =
  let stack, log = make ~n:4 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  for i = 1 to 12 do
    Service.send stack.Stack.services.(0) group (App i)
  done;
  Stack.run stack (Time.sec 2);
  List.iter
    (fun node ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "node %d fifo" node)
        (List.init 12 (fun i -> (0, i + 1)))
        (received log ~node ~group))
    [ 0; 1; 2; 3 ];
  check_invariants stack

let test_send_before_view_buffered () =
  let stack, log = make ~n:2 () in
  let group = lwg 0 in
  Service.join stack.Stack.services.(0) group;
  Service.send stack.Stack.services.(0) group (App 7);
  Stack.run stack (Time.sec 6);
  Alcotest.(check (list (pair int int))) "buffered send" [ (0, 7) ] (received log ~node:0 ~group);
  check_invariants stack

let test_leave () =
  let stack, _ = make ~n:3 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  Service.leave stack.Stack.services.(1) group;
  Stack.run stack (Time.sec 4);
  Alcotest.(check (list int)) "shrunk" [ 0; 2 ] (view_at stack 0 group).View.members;
  Alcotest.(check bool) "left node has no view" true (Service.view_of stack.Stack.services.(1) group = None);
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  check_invariants stack

let test_crash_shrinks_lwg () =
  let stack, _ = make ~n:4 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  Sim_rt.crash stack.Stack.engine 3;
  Stack.run stack (Time.sec 6);
  Alcotest.(check (list int)) "survivors" [ 0; 1; 2 ] (view_at stack 0 group).View.members;
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  check_invariants stack

let test_two_lwgs_share_one_hwg () =
  (* Same membership: the optimistic initial mapping puts the second
     LWG on the first one's HWG — resource sharing. *)
  let stack, log = make ~n:4 () in
  let a = lwg ~seq:1 0 and b = lwg ~seq:2 0 in
  Array.iter (fun service -> Service.join service a) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  Array.iter (fun service -> Service.join service b) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  Alcotest.(check bool) "a converged" true (Stack.lwg_converged stack a);
  Alcotest.(check bool) "b converged" true (Stack.lwg_converged stack b);
  Alcotest.(check bool) "same hwg" true
    (Service.mapping_of stack.Stack.services.(0) a = Service.mapping_of stack.Stack.services.(0) b);
  (* traffic on both groups stays separate *)
  Service.send stack.Stack.services.(1) a (App 1);
  Service.send stack.Stack.services.(2) b (App 2);
  Stack.run stack (Time.sec 2);
  Alcotest.(check (list (pair int int))) "a data" [ (1, 1) ] (received log ~node:3 ~group:a);
  Alcotest.(check (list (pair int int))) "b data" [ (2, 2) ] (received log ~node:3 ~group:b);
  check_invariants stack

let test_interference_rule_splits () =
  (* A 1-member LWG inside an 8-member HWG is a minority (k_m = 4): the
     policy must carve out a dedicated HWG and switch it there. *)
  let stack, log = make ~n:8 () in
  let big = lwg ~seq:1 0 and solo = lwg ~seq:2 0 in
  Array.iter (fun service -> Service.join service big) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  Service.join stack.Stack.services.(0) solo;
  Stack.run stack (Time.sec 12);
  let mapping g = Service.mapping_of stack.Stack.services.(0) g in
  Alcotest.(check bool) "solo re-homed away from big's hwg" true (mapping solo <> mapping big);
  Alcotest.(check bool) "switches happened" true (Service.switch_count stack.Stack.services.(0) >= 1);
  (* both groups still work *)
  Service.send stack.Stack.services.(0) solo (App 5);
  Service.send stack.Stack.services.(1) big (App 6);
  Stack.run stack (Time.sec 2);
  Alcotest.(check (list (pair int int))) "solo delivery" [ (0, 5) ] (received log ~node:0 ~group:solo);
  Alcotest.(check bool) "big delivery everywhere" true (List.mem (1, 6) (received log ~node:7 ~group:big));
  check_invariants stack

let test_share_rule_collapses () =
  (* Two LWGs with identical membership created concurrently end up on
     two HWGs; the share rule must collapse them onto one. *)
  let stack, _ = make ~n:4 () in
  let a = lwg ~seq:1 0 and b = lwg ~seq:2 1 in
  (* created simultaneously from different nodes: distinct fresh HWGs *)
  Service.join stack.Stack.services.(0) a;
  Service.join stack.Stack.services.(1) b;
  Stack.run stack (Time.sec 6);
  List.iter
    (fun node ->
      Service.join stack.Stack.services.(node) a;
      Service.join stack.Stack.services.(node) b)
    [ 0; 1; 2; 3 ];
  Stack.run stack (Time.sec 20);
  Alcotest.(check bool) "a converged" true (Stack.lwg_converged stack a);
  Alcotest.(check bool) "b converged" true (Stack.lwg_converged stack b);
  Alcotest.(check bool) "collapsed onto one hwg" true
    (Service.mapping_of stack.Stack.services.(2) a = Service.mapping_of stack.Stack.services.(2) b);
  check_invariants stack

let test_shrink_rule_leaves_empty_hwg () =
  (* After the interference split, members of the big HWG that carry no
     LWG on the solo HWG must leave it (and vice versa). *)
  let stack, _ = make ~n:8 () in
  let big = lwg ~seq:1 0 and solo = lwg ~seq:2 0 in
  Array.iter (fun service -> Service.join service big) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  Service.join stack.Stack.services.(0) solo;
  Stack.run stack (Time.sec 16);
  (* node 7 should belong only to big's carrier *)
  let hwgs_of node = Hwg.groups (Service.hwg_service stack.Stack.services.(node)) in
  Alcotest.(check int) "node 7 in exactly one hwg" 1 (List.length (hwgs_of 7));
  check_invariants stack

let test_explicit_switch () =
  let stack, log = make ~n:3 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  let before = Service.mapping_of stack.Stack.services.(0) group in
  let target = Hwg.fresh_gid (Service.hwg_service stack.Stack.services.(0)) in
  Service.request_switch stack.Stack.services.(0) group target;
  Stack.run stack (Time.sec 10);
  Alcotest.(check bool) "moved" true (Service.mapping_of stack.Stack.services.(0) group = Some target);
  Alcotest.(check bool) "was elsewhere" true (before <> Some target);
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  (* virtual synchrony across the switch: traffic still flows *)
  Service.send stack.Stack.services.(1) group (App 9);
  Stack.run stack (Time.sec 2);
  Alcotest.(check bool) "delivery after switch" true (List.mem (1, 9) (received log ~node:2 ~group));
  check_invariants stack

let test_switch_preserves_traffic () =
  (* messages sent around a switch are neither lost nor duplicated *)
  let stack, log = make ~n:3 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  for i = 1 to 5 do
    Service.send stack.Stack.services.(1) group (App i)
  done;
  let target = Hwg.fresh_gid (Service.hwg_service stack.Stack.services.(0)) in
  Service.request_switch stack.Stack.services.(0) group target;
  for i = 6 to 10 do
    Service.send stack.Stack.services.(1) group (App i)
  done;
  Stack.run stack (Time.sec 10);
  for i = 11 to 12 do
    Service.send stack.Stack.services.(1) group (App i)
  done;
  Stack.run stack (Time.sec 2);
  List.iter
    (fun node ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "node %d complete stream" node)
        (List.init 12 (fun i -> (1, i + 1)))
        (received log ~node ~group))
    [ 0; 1; 2 ];
  check_invariants stack

(* ---------------- baselines ---------------- *)

let test_static_mode () =
  let stack, log = make ~mode:Stack.Static ~n:4 () in
  let a = lwg ~seq:1 0 and b = lwg ~seq:2 0 in
  List.iter (fun node -> Service.join stack.Stack.services.(node) a) [ 0; 1 ];
  List.iter (fun node -> Service.join stack.Stack.services.(node) b) [ 2; 3 ];
  Stack.run stack (Time.sec 10);
  (* both LWGs ride the single global HWG *)
  Alcotest.(check bool) "a on static hwg" true
    (Service.mapping_of stack.Stack.services.(0) a = Some Stack.static_hwg);
  Alcotest.(check bool) "b on static hwg" true
    (Service.mapping_of stack.Stack.services.(2) b = Some Stack.static_hwg);
  Alcotest.(check (list int)) "a view" [ 0; 1 ] (view_at stack 0 a).View.members;
  Alcotest.(check (list int)) "b view" [ 2; 3 ] (view_at stack 2 b).View.members;
  Service.send stack.Stack.services.(0) a (App 1);
  Stack.run stack (Time.sec 2);
  Alcotest.(check (list (pair int int))) "delivery" [ (0, 1) ] (received log ~node:1 ~group:a);
  Alcotest.(check (list (pair int int))) "no leak" [] (received log ~node:2 ~group:a);
  check_invariants stack

let test_direct_mode () =
  let stack, log = make ~mode:Stack.Direct ~n:4 () in
  let a = lwg ~seq:1 0 in
  List.iter (fun node -> Service.join stack.Stack.services.(node) a) [ 0; 1; 2 ];
  Stack.run stack (Time.sec 6);
  Alcotest.(check bool) "dedicated hwg" true (Service.mapping_of stack.Stack.services.(0) a = Some a);
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ] (view_at stack 0 a).View.members;
  Service.send stack.Stack.services.(2) a (App 3);
  Stack.run stack (Time.sec 2);
  Alcotest.(check (list (pair int int))) "delivery" [ (2, 3) ] (received log ~node:0 ~group:a);
  check_invariants stack

(* ---------------- partitions ---------------- *)

let test_partition_concurrent_lwg_views () =
  let stack, _ = make ~n:4 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  (* keep one name server on each side *)
  let s0 = List.nth stack.Stack.server_nodes 0 and s1 = List.nth stack.Stack.server_nodes 1 in
  Sim_rt.set_partition stack.Stack.engine [ [ 0; 1; s0 ]; [ 2; 3; s1 ] ];
  Stack.run stack (Time.sec 8);
  Alcotest.(check (list int)) "side A" [ 0; 1 ] (view_at stack 0 group).View.members;
  Alcotest.(check (list int)) "side B" [ 2; 3 ] (view_at stack 2 group).View.members;
  Alcotest.(check bool) "concurrent ids" false
    (View_id.equal (view_at stack 0 group).View.id (view_at stack 2 group).View.id);
  Alcotest.(check bool) "per-side convergence" true (Stack.lwg_converged stack group);
  check_invariants stack

let test_heal_merges_lwg_views_same_mapping () =
  (* no mapping divergence: steps 3-4 only (local discovery + merge) *)
  let stack, log = make ~n:4 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  let s0 = List.nth stack.Stack.server_nodes 0 and s1 = List.nth stack.Stack.server_nodes 1 in
  Sim_rt.set_partition stack.Stack.engine [ [ 0; 1; s0 ]; [ 2; 3; s1 ] ];
  Stack.run stack (Time.sec 8);
  let side_a = view_at stack 0 group and side_b = view_at stack 2 group in
  Sim_rt.heal stack.Stack.engine;
  Stack.run stack (Time.sec 14);
  let merged = view_at stack 0 group in
  Alcotest.(check (list int)) "merged members" [ 0; 1; 2; 3 ] merged.View.members;
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  (* the lineage must reach back to both sides *)
  let reaches vid =
    List.exists (View_id.equal vid) merged.View.preds
  in
  Alcotest.(check bool) "lineage side A" true (reaches side_a.View.id);
  Alcotest.(check bool) "lineage side B" true (reaches side_b.View.id);
  (* merged group carries traffic *)
  Service.send stack.Stack.services.(3) group (App 42);
  Stack.run stack (Time.sec 2);
  List.iter
    (fun node ->
      Alcotest.(check bool) (Printf.sprintf "node %d got it" node) true
        (List.mem (3, 42) (received log ~node ~group)))
    [ 0; 1; 2; 3 ];
  check_invariants stack

(* ---------------- robustness ---------------- *)

let test_lossy_network_end_to_end () =
  let stack, log = make ~n:3 ~seed:61 () in
  Sim_rt.(ignore (stats stack.Stack.engine));
  let stack, log =
    (* rebuild with a lossy model *)
    ignore (stack, log);
    let l : (Node_id.t * Gid.t * Node_id.t * int) list ref = ref [] in
    let callbacks node =
      {
        Service.no_callbacks with
        Service.on_data =
          (fun group ~src payload ->
            match payload with App v -> l := (node, group, src, v) :: !l | _ -> ());
      }
    in
    (Stack.create ~model:(Model.lossy 0.08) ~mode:Stack.Dynamic ~callbacks ~seed:61 ~n_app:3 (), l)
  in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 12);
  Alcotest.(check bool) "formed despite loss" true (Stack.lwg_converged stack group);
  for i = 1 to 30 do
    Service.send stack.Stack.services.(i mod 3) group (App i)
  done;
  Stack.run stack (Time.sec 6);
  List.iter
    (fun node ->
      let got = List.map snd (received log ~node ~group) in
      List.iter
        (fun i -> Alcotest.(check bool) (Printf.sprintf "node %d msg %d" node i) true (List.mem i got))
        (List.init 30 (fun i -> i + 1)))
    [ 0; 1; 2 ];
  check_invariants stack

let test_static_mode_partition_heal () =
  let stack, log = make ~mode:Stack.Static ~n:4 ~seed:62 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  Sim_rt.set_partition stack.Stack.engine [ [ 0; 1 ]; [ 2; 3 ] ];
  Stack.run stack (Time.sec 8);
  Alcotest.(check (list int)) "side A" [ 0; 1 ] (view_at stack 0 group).View.members;
  Alcotest.(check (list int)) "side B" [ 2; 3 ] (view_at stack 2 group).View.members;
  Sim_rt.heal stack.Stack.engine;
  Stack.run stack (Time.sec 14);
  Alcotest.(check bool) "merged without naming service" true (Stack.lwg_converged stack group);
  Alcotest.(check (list int)) "all back" [ 0; 1; 2; 3 ] (view_at stack 1 group).View.members;
  Service.send stack.Stack.services.(2) group (App 5);
  Stack.run stack (Time.sec 1);
  Alcotest.(check bool) "traffic flows" true (List.mem (2, 5) (received log ~node:0 ~group));
  check_invariants stack

let test_direct_mode_partition_heal () =
  let stack, log = make ~mode:Stack.Direct ~n:4 ~seed:63 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 6);
  Sim_rt.set_partition stack.Stack.engine [ [ 0; 1 ]; [ 2; 3 ] ];
  Stack.run stack (Time.sec 6);
  Sim_rt.heal stack.Stack.engine;
  Stack.run stack (Time.sec 8);
  Alcotest.(check (list int)) "merged" [ 0; 1; 2; 3 ] (view_at stack 3 group).View.members;
  Service.send stack.Stack.services.(0) group (App 9);
  Stack.run stack (Time.sec 1);
  Alcotest.(check bool) "traffic flows" true (List.mem (0, 9) (received log ~node:2 ~group));
  check_invariants stack

let test_lwg_coordinator_crash () =
  let stack, log = make ~n:4 ~seed:64 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  (* node 0 coordinates both the LWG view and its carrier; kill it *)
  Sim_rt.crash stack.Stack.engine 0;
  Stack.run stack (Time.sec 6);
  Alcotest.(check (list int)) "survivors re-form" [ 1; 2; 3 ] (view_at stack 1 group).View.members;
  Alcotest.(check bool) "converged" true (Stack.lwg_converged stack group);
  (* the new coordinator can run protocol actions: a join works *)
  Service.send stack.Stack.services.(2) group (App 4);
  Stack.run stack (Time.sec 1);
  Alcotest.(check bool) "traffic continues" true (List.mem (2, 4) (received log ~node:3 ~group));
  check_invariants stack

let test_leave_during_partition () =
  let stack, _ = make ~n:4 ~seed:65 () in
  let group = lwg 0 in
  Array.iter (fun service -> Service.join service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  let s0 = List.nth stack.Stack.server_nodes 0 and s1 = List.nth stack.Stack.server_nodes 1 in
  Sim_rt.set_partition stack.Stack.engine [ [ 0; 1; s0 ]; [ 2; 3; s1 ] ];
  Stack.run stack (Time.sec 6);
  Service.leave stack.Stack.services.(3) group;
  Stack.run stack (Time.sec 4);
  Alcotest.(check (list int)) "side B shrank" [ 2 ] (view_at stack 2 group).View.members;
  Sim_rt.heal stack.Stack.engine;
  Stack.run stack (Time.sec 14);
  Alcotest.(check (list int)) "merged without the leaver" [ 0; 1; 2 ] (view_at stack 0 group).View.members;
  Alcotest.(check bool) "leaver stays out" true (Service.view_of stack.Stack.services.(3) group = None);
  check_invariants stack

let test_switch_onto_occupied_hwg () =
  (* switching a LWG onto a HWG that already carries another LWG:
     both share the carrier afterwards and stay independent *)
  let stack, log = make ~n:3 ~seed:66 () in
  let a = lwg ~seq:1 0 and b = lwg ~seq:2 1 in
  Service.join stack.Stack.services.(0) a;
  Service.join stack.Stack.services.(1) b;
  Stack.run stack (Time.sec 6);
  List.iter
    (fun node ->
      Service.join stack.Stack.services.(node) a;
      Service.join stack.Stack.services.(node) b)
    [ 0; 1; 2 ];
  Stack.run stack (Time.sec 10);
  (* force b onto a's carrier regardless of what the policies decided *)
  (match Service.mapping_of stack.Stack.services.(0) a with
  | Some target when Service.mapping_of stack.Stack.services.(0) b <> Some target ->
      Service.request_switch stack.Stack.services.(0) b target;
      Stack.run stack (Time.sec 8)
  | _ -> ());
  Alcotest.(check bool) "shared carrier" true
    (Service.mapping_of stack.Stack.services.(2) a = Service.mapping_of stack.Stack.services.(2) b);
  Service.send stack.Stack.services.(0) a (App 1);
  Service.send stack.Stack.services.(1) b (App 2);
  Stack.run stack (Time.sec 1);
  Alcotest.(check bool) "a delivered" true (List.mem (0, 1) (received log ~node:2 ~group:a));
  Alcotest.(check bool) "b delivered" true (List.mem (1, 2) (received log ~node:2 ~group:b));
  Alcotest.(check bool) "no cross-talk" false (List.mem (1, 2) (received log ~node:2 ~group:a));
  check_invariants stack

(* State transfer: a joiner receives the application state captured at
   the flush point, before any message sent in the new view. *)
type Payload.t += Counter of int

let test_state_transfer_to_joiner () =
  let order : string list ref = ref [] in
  let stack_ref = ref None in
  let group = lwg 8 in
  (* the "application": node 0 owns a counter bumped by every message *)
  let counter = Array.make 4 0 in
  let callbacks node =
    {
      Service.on_view = (fun _ _ -> ());
      Service.on_data =
        (fun _ ~src:_ payload ->
          match payload with
          | App _ ->
              counter.(node) <- counter.(node) + 1;
              if node = 3 then order := "data" :: !order
          | _ -> ());
    }
  in
  let stack = Stack.create ~mode:Stack.Dynamic ~callbacks ~seed:71 ~n_app:4 () in
  stack_ref := Some stack;
  Array.iteri
    (fun node service ->
      Service.enable_state_transfer service
        {
          Service.capture = (fun _ -> Counter counter.(node));
          Service.install_state =
            (fun _ ~src:_ payload ->
              match payload with
              | Counter value ->
                  counter.(node) <- value;
                  if node = 3 then order := "state" :: !order
              | _ -> ());
        })
    stack.Stack.services;
  List.iter (fun node -> Service.join stack.Stack.services.(node) group) [ 0; 1; 2 ];
  Stack.run stack (Time.sec 10);
  for i = 1 to 7 do
    Service.send stack.Stack.services.(0) group (App i)
  done;
  Stack.run stack (Time.sec 2);
  Alcotest.(check int) "members counted the traffic" 7 counter.(0);
  (* node 3 joins late: it must receive the counter via state transfer *)
  Service.join stack.Stack.services.(3) group;
  Stack.run stack (Time.sec 6);
  Alcotest.(check int) "joiner caught up without replay" 7 counter.(3);
  (* post-join traffic reaches the joiner after its state install *)
  Service.send stack.Stack.services.(1) group (App 8);
  Stack.run stack (Time.sec 2);
  Alcotest.(check int) "joiner keeps counting" 8 counter.(3);
  (match List.rev !order with
  | "state" :: rest -> Alcotest.(check bool) "state preceded data" true (List.for_all (( = ) "data") rest)
  | other -> Alcotest.failf "unexpected order: %s" (String.concat "," other));
  check_invariants stack

let test_state_transfer_direct_mode_rejected () =
  let stack, _ = make ~mode:Stack.Direct ~n:2 ~seed:72 () in
  Alcotest.check_raises "direct mode" (Invalid_argument "Lwg.enable_state_transfer: not available in Direct mode")
    (fun () ->
      Service.enable_state_transfer stack.Stack.services.(0)
        { Service.capture = (fun _ -> App 0); Service.install_state = (fun _ ~src:_ _ -> ()) })

(* Causal ordering at the LWG level: replies never overtake the
   messages they answer, even under heavy link jitter. *)
type Payload.t += Ask of int | Answer of int

let lwg_relay ~ordering ~seed =
  let jittery = { Model.default with Model.link_jitter = Time.us 900 } in
  let violations = ref 0 and answers = ref 0 in
  let stack_ref = ref None in
  let group = lwg 9 in
  let order_log = ref [] in
  let callbacks node =
    {
      Service.no_callbacks with
      Service.on_data =
        (fun _ ~src:_ payload ->
          match payload with
          | Ask k ->
              if node = 0 then order_log := `Ask k :: !order_log;
              if node = 2 then (
                match !stack_ref with
                | Some stack -> Service.send stack.Stack.services.(2) group (Answer k)
                | None -> ())
          | Answer k ->
              if node = 0 then begin
                incr answers;
                if not (List.mem (`Ask k) !order_log) then incr violations;
                order_log := `Answer k :: !order_log
              end
          | _ -> ());
    }
  in
  let stack = Stack.create ~model:jittery ~mode:Stack.Dynamic ~callbacks ~seed ~n_app:3 () in
  stack_ref := Some stack;
  Array.iter (fun service -> Service.join ~ordering service group) stack.Stack.services;
  Stack.run stack (Time.sec 10);
  for k = 1 to 40 do
    let (_ : Sim_rt.cancel) =
      Sim_rt.after stack.Stack.engine (Time.ms (5 * k)) (fun () ->
          Service.send stack.Stack.services.(1) group (Ask k))
    in
    ()
  done;
  Stack.run stack (Time.sec 3);
  (!violations, !answers, Stack.check_vs stack)

let test_lwg_causal_ordering () =
  List.iter
    (fun seed ->
      let violations, answers, invariants = lwg_relay ~ordering:Plwg_vsync.Types.Causal ~seed in
      Alcotest.(check int) (Printf.sprintf "no violation (seed %d)" seed) 0 violations;
      Alcotest.(check int) "all answers arrived" 40 answers;
      Alcotest.(check (list string)) "invariants" [] invariants)
    [ 1; 2; 5 ]

let test_lwg_fifo_can_reorder () =
  let total =
    List.fold_left
      (fun acc seed ->
        let violations, _, _ = lwg_relay ~ordering:Plwg_vsync.Types.Fifo ~seed in
        acc + violations)
      0 [ 1; 2; 5; 9 ]
  in
  Alcotest.(check bool) "the scenario has teeth" true (total > 0)

let test_lwg_total_rejected () =
  let stack, _ = make ~n:2 ~seed:67 () in
  Alcotest.check_raises "total at lwg level"
    (Invalid_argument "Lwg.join: Total ordering is only available at the HWG level") (fun () ->
      Service.join ~ordering:Plwg_vsync.Types.Total stack.Stack.services.(0) (lwg 3))

(* Random join/leave churn over three LWGs on five nodes, then a
   settle span. *)
let churn seed =
  let stack, _ = make ~n:5 ~seed:(seed + 100) () in
  let groups = [ lwg ~seq:1 0; lwg ~seq:2 0; lwg ~seq:3 0 ] in
  let rng = Plwg_util.Rng.create ~seed:((seed * 7) + 3) in
  (* seed members *)
  List.iter (fun g -> Service.join stack.Stack.services.(0) g) groups;
  Stack.run stack (Time.sec 8);
  for _op = 1 to 12 do
    let node = 1 + Plwg_util.Rng.int rng 4 in
    let g = Plwg_util.Rng.pick rng groups in
    (if Plwg_util.Rng.bool rng then Service.join stack.Stack.services.(node) g
     else Service.leave stack.Stack.services.(node) g);
    Stack.run stack (Time.ms (300 + Plwg_util.Rng.int rng 700))
  done;
  Stack.run stack (Time.sec 15);
  (stack, groups)

let prop_churn_converges =
  QCheck.Test.make ~name:"lwg: random join/leave churn converges" ~count:5
    QCheck.(int_bound 1000)
    (fun seed ->
      let stack, groups = churn seed in
      List.for_all (Stack.lwg_converged stack) groups && Stack.check_vs stack = [])

(* Regression: node 0 alone moves its singleton view of an LWG to a
   fresh carrier (interference rule), latching the view's lineage; the
   merge round that follows the first peer's join found one view held
   along one lineage, merged nothing and left the latch set, so the
   carrier re-flushed about 1,500 times per simulated second to the
   end of the run (1.6 million trace entries; the default ring holds
   2^19).  The round now clears the latch. *)
let test_churn_latch_clears () =
  let stack, groups = churn 30 in
  let flushes =
    List.length
      (List.filter
         (fun { Plwg_obs.Event.event; _ } ->
           match event with Plwg_obs.Event.Flush_begin _ -> true | _ -> false)
         (Plwg_harness.Trace_check.entries stack.Stack.obs.Plwg_obs.sink))
  in
  Alcotest.(check bool) (Printf.sprintf "flushes settle (%d begun)" flushes) true (flushes < 500);
  Alcotest.(check bool) "converged" true (List.for_all (Stack.lwg_converged stack) groups);
  check_invariants stack

(* Regression: a joiner that resolved a different carrier than the
   coordinator's installed the coordinator's view (the joiner is on
   both carriers) but kept its own mapping; when the coordinator later
   left the joiner's carrier, the joiner shrank the view alone and the
   two never met again.  The joiner now adopts the carrier the view
   arrived on. *)
let test_churn_joiner_follows_carrier () =
  let stack, groups = churn 586 in
  Alcotest.(check bool) "converged" true (List.for_all (Stack.lwg_converged stack) groups);
  check_invariants stack

(* ---------------- causal counters across growth and a view change ---------------- *)

(* A causal relay on the static carrier whose members include the
   highest app node id, so each member's counter array grows past its
   first senders, and whose second burst runs after a join, so the
   counters restart from zero at the install.  A spy HWG on one extra
   node, outside the LWG, joins the carrier and records every L_data it
   carries; each one's causal vector must be exactly what the sender had
   delivered in its current view at send time: the senders with a
   non-zero count, in ascending node order. *)
let test_causal_counters_grow_and_reset () =
  let n_app = 6 in
  let spy = n_app in
  let group = lwg 11 in
  let members = [ 0; 2; n_app - 1 ] in
  let jittery = { Model.default with Model.link_jitter = Time.us 900 } in
  let obs = Plwg_obs.create () in
  let engine = Sim_rt.create ~obs ~model:jittery ~seed:23 ~n_nodes:(n_app + 1) () in
  let services = ref [||] in
  (* per node: deliveries per sender in the current LWG view *)
  let counts = Array.init n_app (fun _ -> Hashtbl.create 8) in
  let expected = Array.make n_app [] (* per sender, newest first *) in
  let violations = ref 0 and answers = ref 0 and asked = ref [] in
  let send node body =
    let vc =
      Hashtbl.fold (fun src n acc -> if n > 0 then (src, n) :: acc else acc) counts.(node) []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    expected.(node) <- vc :: expected.(node);
    Service.send !services.(node) group body
  in
  let callbacks node =
    {
      Service.on_view = (fun g _ -> if Gid.equal g group then Hashtbl.reset counts.(node));
      Service.on_data =
        (fun g ~src payload ->
          if Gid.equal g group then begin
            Hashtbl.replace counts.(node) src (1 + Option.value ~default:0 (Hashtbl.find_opt counts.(node) src));
            match payload with
            | Ask k ->
                if node = 0 then asked := k :: !asked;
                if node = n_app - 1 then send node (Answer k)
            | Answer k ->
                if node = 0 then begin
                  incr answers;
                  if not (List.mem k !asked) then incr violations
                end
            | _ -> ()
          end);
    }
  in
  let parts = Stack.wire ~callbacks ~mode:Stack.Static ~n_app (Sim_rt.rt engine) in
  services := parts.Stack.p_services;
  let shipped = Array.make n_app [] (* per sender, newest first *) in
  (* the spy never answers a merge round: rounds close without it *)
  let spy_callbacks =
    {
      Hwg.no_callbacks with
      Hwg.on_data =
        (fun _ ~view_id:_ ~src payload ->
          match payload with
          | Plwg.Messages.L_data { lwg = g; vc; _ } when Gid.equal g group -> shipped.(src) <- vc :: shipped.(src)
          | _ -> ());
    }
  in
  let spy_hwg = Hwg.create ~transport:parts.Stack.p_transport ~detector:parts.Stack.p_detectors.(spy) spy_callbacks spy in
  Hwg.join spy_hwg Stack.static_hwg;
  List.iter (fun node -> Service.join ~ordering:Plwg_vsync.Types.Causal !services.(node) group) members;
  Sim_rt.run_span engine (Time.sec 10);
  let burst first =
    for k = first to first + 19 do
      let (_ : Sim_rt.cancel) = Sim_rt.after engine (Time.ms (5 * (k - first + 1))) (fun () -> send 2 (Ask k)) in
      ()
    done;
    Sim_rt.run_span engine (Time.sec 3)
  in
  burst 1;
  let view_before = view_in !services 0 group in
  Service.join ~ordering:Plwg_vsync.Types.Causal !services.(1) group;
  Sim_rt.run_span engine (Time.sec 8);
  let view_after = view_in !services 0 group in
  Alcotest.(check (list int)) "the join installed" [ 0; 1; 2; n_app - 1 ] view_after.View.members;
  Alcotest.(check bool) "a new view" false (View_id.equal view_before.View.id view_after.View.id);
  burst 21;
  Alcotest.(check int) "no causal violation" 0 !violations;
  Alcotest.(check int) "every answer arrived" 40 !answers;
  Array.iteri
    (fun node vcs ->
      Alcotest.(check (list (list (pair int int))))
        (Printf.sprintf "vectors shipped by node %d" node)
        (List.rev expected.(node)) (List.rev vcs))
    shipped;
  Alcotest.(check bool) "the relay shipped non-empty vectors" true
    (List.exists (fun vc -> List.length vc >= 2) shipped.(n_app - 1));
  Alcotest.(check (list string)) "vs invariants" []
    (Plwg_harness.Trace_check.check_sink Plwg_harness.Trace_check.check_vs obs.Plwg_obs.sink)

(* ---------------- steady-state allocation gate (Dynamic mode) ---------------- *)

(* One four-member LWG on one carrier, with the naming replicas, wired
   without the Stack fixture's always-on sink.  Node 0 sends one
   preallocated payload every [gate_period] from a self-rescheduling
   timer, so the send loop allocates nothing per message, and the LWG
   layer's demultiplexing, counters and periodic walks (ticks, gossip,
   policy rounds) are all inside the measured window. *)
let gate_period = Time.ms 2

let lwg_gate_stack ?obs () =
  let n_app = 4 in
  let engine = Sim_rt.create ?obs ~model:Model.default ~seed:7 ~n_nodes:(n_app + Stack.n_servers) () in
  let delivered = ref 0 in
  let callbacks _node = { Service.no_callbacks with Service.on_data = (fun _ ~src:_ _ -> incr delivered) } in
  let parts = Stack.wire ~callbacks ~mode:Stack.Dynamic ~n_app (Sim_rt.rt engine) in
  let services = parts.Stack.p_services in
  let group = lwg 12 in
  Array.iter (fun service -> Service.join service group) services;
  Sim_rt.run_span engine (Time.sec 10);
  Array.iteri
    (fun node _ ->
      Alcotest.(check int) "four-member view" n_app (List.length (view_in services node group).View.members))
    services;
  Alcotest.(check bool) "one carrier" true
    (Array.for_all (fun service -> Service.mapping_of service group = Service.mapping_of services.(0) group) services);
  let payloads = Array.init 5_000 (fun i -> App i) in
  let sent = ref 0 in
  let rt = Sim_rt.rt engine in
  let rec send_loop () =
    if !sent < Array.length payloads then begin
      Service.send services.(0) group payloads.(!sent);
      incr sent;
      Plwg_runtime.Rt.at_node_ rt 0 gate_period send_loop
    end
  in
  Plwg_runtime.Rt.at_node_ rt 0 gate_period send_loop;
  (engine, delivered)

(* Minor words per delivery over a steady-state window: LWG, HWG,
   transport and naming background all count.  The window measures 15.5
   words; delivery counters or periodic table walks that allocate push
   it past 40. *)
let lwg_gate_bound = 20.

let test_lwg_steady_state_alloc_gate () =
  let engine, delivered = lwg_gate_stack () in
  Sim_rt.run_span engine (Time.sec 1);
  let d0 = !delivered and w0 = Gc.minor_words () in
  Sim_rt.run_span engine (Time.sec 4);
  let words = Gc.minor_words () -. w0 and deliveries = !delivered - d0 in
  Alcotest.(check int) "every send delivered at all four members" (4 * (Time.sec 4 / gate_period)) deliveries;
  let per_delivery = words /. float_of_int deliveries in
  if per_delivery > lwg_gate_bound then Alcotest.failf "%.1f minor words per delivery > %.0f" per_delivery lwg_gate_bound

(* The traced twin: with a sink attached, the LWG tracing guard must not
   drop a single delivery event. *)
let test_lwg_steady_state_traced_twin () =
  let obs = Plwg_obs.create () in
  let engine, delivered = lwg_gate_stack ~obs () in
  let d0 = !delivered in
  Sim_rt.run_span engine (Time.sec 1);
  Alcotest.(check int) "the ring kept every entry" 0 (Plwg_obs.Sink.dropped obs.Plwg_obs.sink);
  let events =
    List.length
      (List.filter
         (fun (entry : Plwg_obs.Event.entry) ->
           match entry.Plwg_obs.Event.event with
           | Plwg_obs.Event.Group_delivered { layer = Plwg_obs.Event.Lwg; _ } -> true
           | _ -> false)
         (Plwg_harness.Trace_check.entries obs.Plwg_obs.sink))
  in
  Alcotest.(check bool) "deliveries happened" true (!delivered - d0 > 1_000);
  Alcotest.(check int) "one Group_delivered per delivery" !delivered events

let suite =
  [
    Alcotest.test_case "create singleton" `Quick test_create_singleton;
    Alcotest.test_case "join existing" `Quick test_join_existing;
    Alcotest.test_case "concurrent creation" `Quick test_concurrent_creation;
    Alcotest.test_case "send/deliver fifo" `Quick test_send_deliver_fifo;
    Alcotest.test_case "send before view buffered" `Quick test_send_before_view_buffered;
    Alcotest.test_case "leave" `Quick test_leave;
    Alcotest.test_case "crash shrinks lwg" `Quick test_crash_shrinks_lwg;
    Alcotest.test_case "two lwgs share one hwg" `Quick test_two_lwgs_share_one_hwg;
    Alcotest.test_case "interference rule splits" `Quick test_interference_rule_splits;
    Alcotest.test_case "share rule collapses" `Quick test_share_rule_collapses;
    Alcotest.test_case "shrink rule leaves empty hwg" `Quick test_shrink_rule_leaves_empty_hwg;
    Alcotest.test_case "explicit switch" `Quick test_explicit_switch;
    Alcotest.test_case "switch preserves traffic" `Quick test_switch_preserves_traffic;
    Alcotest.test_case "static mode" `Quick test_static_mode;
    Alcotest.test_case "direct mode" `Quick test_direct_mode;
    Alcotest.test_case "partition concurrent lwg views" `Quick test_partition_concurrent_lwg_views;
    Alcotest.test_case "heal merges lwg views" `Quick test_heal_merges_lwg_views_same_mapping;
    Alcotest.test_case "lossy network end-to-end" `Quick test_lossy_network_end_to_end;
    Alcotest.test_case "static mode partition+heal" `Quick test_static_mode_partition_heal;
    Alcotest.test_case "direct mode partition+heal" `Quick test_direct_mode_partition_heal;
    Alcotest.test_case "lwg coordinator crash" `Quick test_lwg_coordinator_crash;
    Alcotest.test_case "leave during partition" `Quick test_leave_during_partition;
    Alcotest.test_case "switch onto occupied hwg" `Quick test_switch_onto_occupied_hwg;
    Alcotest.test_case "state transfer to joiner" `Quick test_state_transfer_to_joiner;
    Alcotest.test_case "state transfer rejected in direct mode" `Quick test_state_transfer_direct_mode_rejected;
    Alcotest.test_case "lwg causal ordering" `Quick test_lwg_causal_ordering;
    Alcotest.test_case "lwg fifo can reorder" `Quick test_lwg_fifo_can_reorder;
    Alcotest.test_case "lwg total rejected" `Quick test_lwg_total_rejected;
    QCheck_alcotest.to_alcotest prop_churn_converges;
    Alcotest.test_case "churn 30: merge round clears the latch" `Quick test_churn_latch_clears;
    Alcotest.test_case "churn 586: joiner follows the carrier" `Quick test_churn_joiner_follows_carrier;
    Alcotest.test_case "causal counters grow and reset" `Quick test_causal_counters_grow_and_reset;
    Alcotest.test_case "lwg steady-state allocation gate" `Quick test_lwg_steady_state_alloc_gate;
    Alcotest.test_case "lwg steady-state traced twin" `Quick test_lwg_steady_state_traced_twin;
  ]
