(* Tests for the failure detector: discovery, suspicion on crash and
   partition, peer re-discovery on heal, and liveness read off traffic
   (no heartbeat where a stream already flows, no broadcast to self). *)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector

let setup_transport ?(n = 4) ?(seed = 5) () =
  let engine = Sim_rt.create ~model:Model.lossless ~seed ~n_nodes:n () in
  let transport = Transport.create (Sim_rt.rt engine) in
  let detectors = List.init n (fun node -> Detector.create transport node) in
  (engine, transport, Array.of_list detectors)

let setup ?n ?seed () =
  let engine, _, detectors = setup_transport ?n ?seed () in
  (engine, detectors)

let warmup = Time.ms 500

let test_initial_discovery () =
  let engine, detectors = setup () in
  Sim_rt.run engine ~until:warmup;
  Array.iteri
    (fun i detector ->
      Alcotest.(check int)
        (Printf.sprintf "node %d sees everyone" i)
        4
        (Node_id.Set.cardinal (Detector.reachable_set detector)))
    detectors

let test_self_always_reachable () =
  let _, detectors = setup () in
  Alcotest.(check bool) "self" true (Detector.status detectors.(0) 0 = Detector.Reachable)

let test_crash_detected () =
  let engine, detectors = setup () in
  Sim_rt.run engine ~until:warmup;
  Sim_rt.crash engine 3;
  Sim_rt.run engine ~until:(Time.add warmup (Time.sec 1));
  Alcotest.(check bool) "3 suspected at 0" true (Detector.status detectors.(0) 3 = Detector.Unreachable);
  Alcotest.(check bool) "3 suspected at 1" true (Detector.status detectors.(1) 3 = Detector.Unreachable);
  Alcotest.(check bool) "others still fine" true (Detector.status detectors.(0) 1 = Detector.Reachable)

let test_partition_detected_both_sides () =
  let engine, detectors = setup () in
  Sim_rt.run engine ~until:warmup;
  Sim_rt.set_partition engine [ [ 0; 1 ]; [ 2; 3 ] ];
  Sim_rt.run engine ~until:(Time.add warmup (Time.sec 1));
  Alcotest.(check bool) "0 cannot see 2" true (Detector.status detectors.(0) 2 = Detector.Unreachable);
  Alcotest.(check bool) "2 cannot see 0" true (Detector.status detectors.(2) 0 = Detector.Unreachable);
  Alcotest.(check bool) "0 still sees 1" true (Detector.status detectors.(0) 1 = Detector.Reachable);
  Alcotest.(check bool) "2 still sees 3" true (Detector.status detectors.(2) 3 = Detector.Reachable)

let test_heal_rediscovery () =
  let engine, detectors = setup () in
  Sim_rt.run engine ~until:warmup;
  Sim_rt.set_partition engine [ [ 0; 1 ]; [ 2; 3 ] ];
  Sim_rt.run engine ~until:(Time.add warmup (Time.sec 1));
  Sim_rt.heal engine;
  Sim_rt.run engine ~until:(Time.add warmup (Time.sec 2));
  Alcotest.(check bool) "0 rediscovers 2" true (Detector.status detectors.(0) 2 = Detector.Reachable);
  Alcotest.(check bool) "3 rediscovers 1" true (Detector.status detectors.(3) 1 = Detector.Reachable)

let test_change_events () =
  let engine, detectors = setup () in
  let events = ref [] in
  Detector.on_change detectors.(0) (fun peer status -> events := (peer, status) :: !events);
  Sim_rt.run engine ~until:warmup;
  Sim_rt.crash engine 2;
  Sim_rt.run engine ~until:(Time.add warmup (Time.sec 1));
  let ups = List.filter (fun (_, s) -> s = Detector.Reachable) !events in
  let downs = List.filter (fun (_, s) -> s = Detector.Unreachable) !events in
  Alcotest.(check int) "three discoveries" 3 (List.length ups);
  Alcotest.(check (list int)) "one suspicion, node 2" [ 2 ] (List.map fst downs)

let test_no_flapping_when_stable () =
  let engine, detectors = setup () in
  let transitions = ref 0 in
  Detector.on_change detectors.(1) (fun _ _ -> incr transitions);
  Sim_rt.run engine ~until:(Time.sec 5);
  Alcotest.(check int) "exactly the 3 initial discoveries" 3 !transitions

let test_recover_rediscovered () =
  let engine, detectors = setup () in
  Sim_rt.run engine ~until:warmup;
  Sim_rt.crash engine 1;
  Sim_rt.run engine ~until:(Time.add warmup (Time.sec 1));
  Alcotest.(check bool) "down" true (Detector.status detectors.(0) 1 = Detector.Unreachable);
  Sim_rt.recover engine 1;
  Sim_rt.run engine ~until:(Time.add warmup (Time.sec 2));
  Alcotest.(check bool) "up again" true (Detector.status detectors.(0) 1 = Detector.Reachable)

type Payload.t += Tick

(* A reliable stream from [src] to [dst], one segment every 20 ms. *)
let stream engine transport ~src ~dst =
  let ep = Transport.endpoint transport src in
  Plwg_runtime.Rt.every (Sim_rt.rt engine) src ~first:(Time.ms 1) ~period:(Time.ms 20) (fun () ->
      Transport.send ep ~dst Tick)

let is_heartbeat payload = String.starts_with ~prefix:"heartbeat(" (Payload.to_string payload)

let count_transitions detector =
  let n = ref 0 in
  Detector.on_change detector (fun _ _ -> incr n);
  n

(* The stream and its acks prove both ends alive, so after the first
   round neither sends the other an explicit heartbeat. *)
let test_stream_replaces_heartbeats () =
  let engine, transport, detectors = setup_transport () in
  stream engine transport ~src:0 ~dst:1;
  let beats = ref 0 in
  let count_beats ~at ~from =
    Transport.on_receive (Transport.endpoint transport at) (fun ~src payload ->
        if src = from && is_heartbeat payload then incr beats)
  in
  count_beats ~at:1 ~from:0;
  count_beats ~at:0 ~from:1;
  let flips0 = count_transitions detectors.(0) and flips1 = count_transitions detectors.(1) in
  Sim_rt.run engine ~until:(Time.ms 100);
  beats := 0;
  Sim_rt.run engine ~until:(Time.ms 5100);
  Alcotest.(check int) "no heartbeat either way" 0 !beats;
  Alcotest.(check int) "node 0: the 3 initial discoveries" 3 !flips0;
  Alcotest.(check int) "node 1: the 3 initial discoveries" 3 !flips1

(* Node 0 ticks at every 100 ms, node 1 at every 100 ms + 137 us.  Heal
   just after node 1's tick: a message node 1 sends then must flip it
   Reachable at node 0 on arrival, before either node ticks again. *)
let test_first_message_ends_suspicion () =
  let engine, transport, detectors = setup_transport () in
  Sim_rt.run engine ~until:warmup;
  Sim_rt.set_partition engine [ [ 0 ]; [ 1; 2; 3 ] ];
  Sim_rt.run engine ~until:(Time.add Time.zero (Time.us 1_500_200));
  Alcotest.(check bool) "1 suspected at 0" true (Detector.status detectors.(0) 1 = Detector.Unreachable);
  Sim_rt.heal engine;
  Transport.send (Transport.endpoint transport 1) ~dst:0 Tick;
  Sim_rt.run engine ~until:(Time.ms 1590);
  Alcotest.(check bool) "1 reachable at 0 before the next tick" true
    (Detector.status detectors.(0) 1 = Detector.Reachable)

(* Sending keeps [spoke_at] fresh, so node 0 never beats the crashed
   node 3; silence from 3 must still be suspected: by the first sweep
   more than [timeout] (350 ms) after the crash. *)
let test_sender_suspects_crashed_peer () =
  let engine, transport, detectors = setup_transport () in
  stream engine transport ~src:0 ~dst:3;
  Sim_rt.run engine ~until:warmup;
  let suspected_at = ref None in
  Detector.on_change detectors.(0) (fun peer status ->
      if peer = 3 && status = Detector.Unreachable && !suspected_at = None then
        suspected_at := Some (Plwg_runtime.Rt.now (Sim_rt.rt engine)));
  Sim_rt.crash engine 3;
  Sim_rt.run engine ~until:(Time.add warmup (Time.sec 1));
  match !suspected_at with
  | None -> Alcotest.fail "crashed peer never suspected"
  | Some at ->
      Alcotest.(check bool) "within timeout plus one round" true (Time.diff at warmup <= Time.ms 450);
      Alcotest.(check bool) "still suspected" true (Detector.status detectors.(0) 3 = Detector.Unreachable)

let test_broadcast_skips_sender () =
  let engine, transport, _ = setup_transport () in
  let got = Array.make 4 0 in
  for node = 0 to 3 do
    Transport.on_receive (Transport.endpoint transport node) (fun ~src:_ payload ->
        if payload == Tick then got.(node) <- got.(node) + 1)
  done;
  Transport.broadcast_raw transport ~src:0 Tick;
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (array int)) "every node but the sender" [| 0; 1; 1; 1 |] got

let suite =
  [
    Alcotest.test_case "initial discovery" `Quick test_initial_discovery;
    Alcotest.test_case "self reachable" `Quick test_self_always_reachable;
    Alcotest.test_case "crash detected" `Quick test_crash_detected;
    Alcotest.test_case "partition detected both sides" `Quick test_partition_detected_both_sides;
    Alcotest.test_case "heal rediscovery" `Quick test_heal_rediscovery;
    Alcotest.test_case "change events" `Quick test_change_events;
    Alcotest.test_case "no flapping when stable" `Quick test_no_flapping_when_stable;
    Alcotest.test_case "recover rediscovered" `Quick test_recover_rediscovered;
    Alcotest.test_case "stream replaces heartbeats" `Quick test_stream_replaces_heartbeats;
    Alcotest.test_case "first message ends suspicion" `Quick test_first_message_ends_suspicion;
    Alcotest.test_case "sender suspects crashed peer" `Quick test_sender_suspects_crashed_peer;
    Alcotest.test_case "broadcast skips sender" `Quick test_broadcast_skips_sender;
  ]
