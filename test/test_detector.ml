(* Tests for the failure detector: discovery, suspicion on crash and
   partition, peer re-discovery on heal, liveness read off traffic (no
   heartbeat where a stream already flows, no broadcast to self), and
   monitoring scoped by interest (full-rate beats to watched peers
   only, slow probes to the rest, answers to asking beats). *)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector

(* Interest in [peers], renewed every 150 ms as a consumer's loop would,
   while [while_] holds. *)
let watch engine detector node ?while_ peers =
  let renew () = List.iter (Detector.watch detector) peers in
  renew ();
  Plwg_runtime.Rt.every ?while_ (Sim_rt.rt engine) node ~first:(Time.ms 150) ~period:(Time.ms 150) renew

let bare_transport ?(n = 4) ?(seed = 5) () =
  let engine = Sim_rt.create ~model:Model.lossless ~seed ~n_nodes:n () in
  let transport = Transport.create (Sim_rt.rt engine) in
  let detectors = List.init n (fun node -> Detector.create transport node) in
  (engine, transport, Array.of_list detectors)

(* Every detector watches every peer. *)
let setup_transport ?(n = 4) ?seed () =
  let engine, transport, detectors = bare_transport ~n ?seed () in
  Array.iteri (fun node detector -> watch engine detector node (List.init n Fun.id)) detectors;
  (engine, transport, detectors)

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
        (List.length
           (List.filter (fun peer -> Detector.status detector peer = Detector.Reachable) (List.init 4 Fun.id))))
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

(* Arrival times at [at] of the heartbeats from [from] that [keep]
   selects by their printed form. *)
let beat_arrivals engine transport ~at ~from keep =
  let times = ref [] in
  Transport.on_receive (Transport.endpoint transport at) (fun ~src payload ->
      if src = from && is_heartbeat payload && keep (Payload.to_string payload) then
        times := Plwg_runtime.Rt.now (Sim_rt.rt engine) :: !times);
  times

let asks s = String.ends_with ~suffix:",ask)" s

(* No consumer watches anyone: every peer gets a probe every 400 ms at
   most, which discovers it, and nothing is ever suspected. *)
let test_unwatched_probed () =
  let engine, transport, detectors = bare_transport () in
  let probes = beat_arrivals engine transport ~at:1 ~from:0 (fun _ -> true) in
  let asked = beat_arrivals engine transport ~at:1 ~from:0 asks in
  Sim_rt.run engine ~until:warmup;
  let flips = count_transitions detectors.(2) in
  Sim_rt.run engine ~until:(Time.sec 5);
  let rec between = function a :: (b :: _ as rest) -> Time.diff a b :: between rest | [ _ ] | [] -> [] in
  let gaps = between !probes in
  Alcotest.(check bool) "a probe every probe period" true (List.length !probes >= 12);
  Alcotest.(check bool) "no two probes within a probe period" true (List.for_all (fun gap -> gap >= Time.ms 400) gaps);
  Alcotest.(check int) "none asks for an answer" 0 (List.length !asked);
  Alcotest.(check bool) "discovered" true (Detector.status detectors.(1) 0 = Detector.Reachable);
  Alcotest.(check int) "stable: no transition" 0 !flips

(* Node 0 watches node 1; node 1 watches nobody.  Node 1 answers the
   asking beats, so node 0 never suspects it, and still sees it crash. *)
let test_one_sided_interest () =
  let engine, _, detectors = bare_transport ~n:2 () in
  watch engine detectors.(0) 0 [ 1 ];
  let downs = ref 0 and suspected_at = ref None in
  Detector.on_change detectors.(0) (fun _ status ->
      if status = Detector.Unreachable then begin
        incr downs;
        if !suspected_at = None then suspected_at := Some (Plwg_runtime.Rt.now (Sim_rt.rt engine))
      end);
  let crash_at = Time.sec 5 in
  Sim_rt.run engine ~until:crash_at;
  Alcotest.(check int) "no suspicion in 5 s" 0 !downs;
  Sim_rt.crash engine 1;
  Sim_rt.run engine ~until:(Time.add crash_at (Time.sec 1));
  match !suspected_at with
  | None -> Alcotest.fail "crashed peer never suspected"
  | Some at -> Alcotest.(check bool) "within timeout plus one period" true (Time.diff at crash_at <= Time.ms 450)

(* Partitioned from the start, two unwatched nodes never hear each
   other; after the heal their probes find each other within a probe
   period plus a round. *)
let test_strangers_meet_after_heal () =
  let engine, _, detectors = bare_transport ~n:2 () in
  Sim_rt.set_partition engine [ [ 0 ]; [ 1 ] ];
  let met = Array.make 2 None in
  Array.iteri
    (fun node detector ->
      Detector.on_change detector (fun _ status ->
          if status = Detector.Reachable && met.(node) = None then
            met.(node) <- Some (Plwg_runtime.Rt.now (Sim_rt.rt engine))))
    detectors;
  let heal_at = Time.ms 2050 in
  Sim_rt.run engine ~until:heal_at;
  Alcotest.(check bool) "apart before the heal" true (met.(0) = None && met.(1) = None);
  Sim_rt.heal engine;
  Sim_rt.run engine ~until:(Time.add heal_at (Time.sec 2));
  Array.iteri
    (fun node at ->
      match at with
      | None -> Alcotest.failf "node %d never met its peer" node
      | Some at ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d within probe + period" node)
            true
            (Time.diff at heal_at <= Time.ms 500))
    met

(* Node 0 watches node 1 until 2 s: asking beats every round, then,
   once the lease lapses, only probes. *)
let test_lapsed_lease_stops_beats () =
  let engine, transport, detectors = bare_transport ~n:2 () in
  let rt = Sim_rt.rt engine and stop = Time.sec 2 in
  watch engine detectors.(0) 0 ~while_:(fun () -> Plwg_runtime.Rt.now rt < stop) [ 1 ];
  let asked = beat_arrivals engine transport ~at:1 ~from:0 asks in
  let beats = beat_arrivals engine transport ~at:1 ~from:0 (fun _ -> true) in
  Sim_rt.run engine ~until:stop;
  Alcotest.(check bool) "full rate while watched" true (List.length !asked >= 18);
  (* the last renewal, at 1.95 s, holds until 2.95 s *)
  Sim_rt.run engine ~until:(Time.ms 3000);
  asked := [];
  beats := [];
  Sim_rt.run engine ~until:(Time.sec 6);
  Alcotest.(check int) "no asking beat after the lapse" 0 (List.length !asked);
  Alcotest.(check bool) "only probes: at most one per 400 ms" true (List.length !beats <= 8)

(* A lease that starts long after the peer's last probe first lets the
   peer answer: the silence before the lease is no evidence. *)
let test_fresh_lease_no_suspicion () =
  let engine, transport, detectors = bare_transport ~n:2 () in
  let heard = beat_arrivals engine transport ~at:0 ~from:1 (fun _ -> true) in
  let downs = ref 0 in
  Detector.on_change detectors.(0) (fun _ status -> if status = Detector.Unreachable then incr downs);
  let now = Time.ms 1950 in
  Sim_rt.run engine ~until:now;
  let last = match !heard with at :: _ -> at | [] -> Alcotest.fail "node 1 never probed" in
  let start = Time.add last (Time.ms 380) in
  Alcotest.(check bool) "the lease starts in the future" true (start > now);
  Sim_rt.run engine ~until:start;
  watch engine detectors.(0) 0 [ 1 ];
  Sim_rt.run engine ~until:(Time.sec 4);
  Alcotest.(check int) "no suspicion" 0 !downs;
  Alcotest.(check bool) "still reachable" true (Detector.status detectors.(0) 1 = Detector.Reachable)

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
    Alcotest.test_case "unwatched peer: probes only" `Quick test_unwatched_probed;
    Alcotest.test_case "one-sided interest" `Quick test_one_sided_interest;
    Alcotest.test_case "strangers meet after heal" `Quick test_strangers_meet_after_heal;
    Alcotest.test_case "lapsed lease stops beats" `Quick test_lapsed_lease_stops_beats;
    Alcotest.test_case "fresh lease: no suspicion" `Quick test_fresh_lease_no_suspicion;
  ]
