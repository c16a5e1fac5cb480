(* Tests for the reliable-FIFO transport: ordering, loss masking,
   connection reset across partitions, broadcast datagrams. *)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
module Transport = Plwg_transport.Transport

type Payload.t += Msg of int

let setup ?(model = Model.lossless) ?(seed = 3) ?(n = 4) () =
  let engine = Sim_rt.create ~model ~seed ~n_nodes:n () in
  let transport = Transport.create (Sim_rt.rt engine) in
  (engine, transport)

let collect transport node =
  let got = ref [] in
  Transport.on_receive (Transport.endpoint transport node) (fun ~src payload ->
      match payload with Msg n -> got := (src, n) :: !got | _ -> ());
  got

let test_basic_delivery () =
  let engine, transport = setup () in
  let got = collect transport 1 in
  Transport.send (Transport.endpoint transport 0) ~dst:1 (Msg 42);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list (pair int int))) "one message" [ (0, 42) ] !got

let test_fifo_order () =
  let engine, transport = setup ~model:Model.default () in
  let got = collect transport 1 in
  let ep = Transport.endpoint transport 0 in
  for i = 1 to 50 do
    Transport.send ep ~dst:1 (Msg i)
  done;
  Sim_rt.run engine ~until:(Time.sec 2);
  Alcotest.(check (list int)) "in order, no gaps, no dups" (List.init 50 (fun i -> i + 1))
    (List.rev_map snd !got)

let test_loss_masked () =
  (* 30% wire loss: retransmission must still achieve exactly-once FIFO. *)
  let engine, transport = setup ~model:(Model.lossy 0.3) ~seed:9 () in
  let got = collect transport 1 in
  let ep = Transport.endpoint transport 0 in
  for i = 1 to 40 do
    Transport.send ep ~dst:1 (Msg i)
  done;
  Sim_rt.run engine ~until:(Time.sec 20);
  Alcotest.(check (list int)) "reliable despite loss" (List.init 40 (fun i -> i + 1)) (List.rev_map snd !got)

let test_heavy_loss_masked () =
  let engine, transport = setup ~model:(Model.lossy 0.6) ~seed:4 () in
  let got = collect transport 2 in
  let ep = Transport.endpoint transport 0 in
  for i = 1 to 10 do
    Transport.send ep ~dst:2 (Msg i)
  done;
  Sim_rt.run engine ~until:(Time.sec 60);
  Alcotest.(check (list int)) "reliable at 60% loss" (List.init 10 (fun i -> i + 1)) (List.rev_map snd !got)

let test_bidirectional () =
  let engine, transport = setup () in
  let got0 = collect transport 0 and got1 = collect transport 1 in
  Transport.send (Transport.endpoint transport 0) ~dst:1 (Msg 1);
  Transport.send (Transport.endpoint transport 1) ~dst:0 (Msg 2);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list (pair int int))) "0 got" [ (1, 2) ] !got0;
  Alcotest.(check (list (pair int int))) "1 got" [ (0, 1) ] !got1

let test_self_send () =
  let engine, transport = setup () in
  let got = collect transport 0 in
  Transport.send (Transport.endpoint transport 0) ~dst:0 (Msg 5);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list (pair int int))) "loop-back" [ (0, 5) ] !got

let test_connection_reset_on_partition () =
  (* Messages queued toward a partitioned peer are abandoned; after the
     heal a new message starts a fresh connection and is delivered. *)
  let engine, transport = setup () in
  let got = collect transport 1 in
  let ep = Transport.endpoint transport 0 in
  Sim_rt.set_partition engine [ [ 0 ]; [ 1; 2; 3 ] ];
  for i = 1 to 5 do
    Transport.send ep ~dst:1 (Msg i)
  done;
  (* long enough for retransmission to give up: 8 tries, capped backoff *)
  Sim_rt.run engine ~until:(Time.sec 10);
  Alcotest.(check int) "gave up" 0 (Transport.in_flight ep);
  Alcotest.(check (list int)) "nothing crossed the partition" [] (List.rev_map snd !got);
  Sim_rt.heal engine;
  Transport.send ep ~dst:1 (Msg 100);
  Sim_rt.run engine ~until:(Time.sec 20);
  Alcotest.(check (list int)) "fresh connection works after heal" [ 100 ] (List.rev_map snd !got)

let test_no_stale_replay_after_reset () =
  (* A short partition that does NOT outlast retransmission: the old
     stream continues after the heal (loss is masked), still FIFO. *)
  let engine, transport = setup () in
  let got = collect transport 1 in
  let ep = Transport.endpoint transport 0 in
  Transport.send ep ~dst:1 (Msg 1);
  Sim_rt.run engine ~until:(Time.ms 5);
  Sim_rt.set_partition engine [ [ 0 ]; [ 1; 2; 3 ] ];
  Transport.send ep ~dst:1 (Msg 2);
  Sim_rt.run engine ~until:(Time.ms 200);
  Sim_rt.heal engine;
  Sim_rt.run engine ~until:(Time.sec 5);
  Alcotest.(check (list int)) "fifo across short outage" [ 1; 2 ] (List.rev_map snd !got)

let test_broadcast_raw () =
  let engine, transport = setup () in
  let got1 = collect transport 1 and got2 = collect transport 2 and got3 = collect transport 3 in
  Transport.broadcast_raw transport ~src:0 (Msg 9);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list (pair int int))) "node1" [ (0, 9) ] !got1;
  Alcotest.(check (list (pair int int))) "node2" [ (0, 9) ] !got2;
  Alcotest.(check (list (pair int int))) "node3" [ (0, 9) ] !got3

let test_broadcast_best_effort_loss () =
  let engine, transport = setup ~model:(Model.lossy 1.0) () in
  let got1 = collect transport 1 in
  Transport.broadcast_raw transport ~src:0 (Msg 9);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list (pair int int))) "datagrams are not retransmitted" [] !got1

let test_send_raw_datagram () =
  let engine, transport = setup () in
  let got = collect transport 1 in
  Transport.send_raw (Transport.endpoint transport 0) ~dst:1 (Msg 3);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list (pair int int))) "datagram delivered" [ (0, 3) ] !got

let test_send_raw_lossy_not_retransmitted () =
  let engine, transport = setup ~model:(Model.lossy 1.0) () in
  let got = collect transport 1 in
  Transport.send_raw (Transport.endpoint transport 0) ~dst:1 (Msg 3);
  Sim_rt.run engine ~until:(Time.sec 2);
  Alcotest.(check (list (pair int int))) "lost for good" [] !got

let test_two_handlers_both_run () =
  let engine, transport = setup () in
  let a = ref 0 and b = ref 0 in
  let ep1 = Transport.endpoint transport 1 in
  Transport.on_receive ep1 (fun ~src:_ _ -> incr a);
  Transport.on_receive ep1 (fun ~src:_ _ -> incr b);
  Transport.send (Transport.endpoint transport 0) ~dst:1 (Msg 1);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (pair int int)) "both layers saw it" (1, 1) (!a, !b)

let test_partition_backlog_fifo () =
  (* Regression for the quadratic unacked append: partition the sender
     mid-stream, queue 1k sends against the dead link, heal, and require
     exactly-once FIFO delivery of the whole backlog.  Polls in_flight
     per send (as the macro bench does) — with the pre-ring list
     implementation this workload was O(n^2) twice over. *)
  let engine, transport = setup ~model:Model.default () in
  let got = collect transport 1 in
  let ep = Transport.endpoint transport 0 in
  let n_backlog = 1000 in
  (* mid-stream: a few messages flow before the cut *)
  for i = 1 to 5 do
    Transport.send ep ~dst:1 (Msg i)
  done;
  Sim_rt.run engine ~until:(Time.ms 100);
  Sim_rt.set_partition engine [ [ 0 ]; [ 1; 2; 3 ] ];
  for i = 6 to 5 + n_backlog do
    Transport.send ep ~dst:1 (Msg i);
    ignore (Transport.in_flight ep)
  done;
  Alcotest.(check int) "backlog queued" n_backlog (Transport.in_flight ep);
  (* a couple of retransmission rounds fail into the partition, but heal
     well before the give-up horizon so the connection survives *)
  Sim_rt.run engine ~until:(Time.ms 300);
  Sim_rt.heal engine;
  Sim_rt.run engine ~until:(Time.sec 30);
  Alcotest.(check (list int)) "exactly-once FIFO across the backlog"
    (List.init (5 + n_backlog) (fun i -> i + 1))
    (List.rev_map snd !got);
  Alcotest.(check int) "fully drained" 0 (Transport.in_flight ep);
  Alcotest.(check int) "peak saw the whole backlog" n_backlog (Transport.in_flight_peak ep)

let test_pooled_slots_survive_reset_cycles () =
  (* Hammer the pooled unacked-slot freelist through its three release
     paths — cumulative ack, give-up connection reset, recovery re-arm —
     with the debug poison/epoch checks on (the default).  Any
     retransmit or ack path reading a released slot raises; correctness
     of what does arrive is checked at the end. *)
  let engine, transport = setup ~model:(Model.lossy 0.2) ~seed:17 () in
  let got = collect transport 1 in
  let ep = Transport.endpoint transport 0 in
  let sent = ref 0 in
  let send_burst n =
    for _ = 1 to n do
      incr sent;
      Transport.send ep ~dst:1 (Msg !sent)
    done
  in
  send_burst 30;
  Sim_rt.run engine ~until:(Time.sec 2);
  (* give-up reset: the backlog's slots are released mid-deque *)
  Sim_rt.set_partition engine [ [ 0 ]; [ 1; 2; 3 ] ];
  send_burst 20;
  Sim_rt.run engine ~until:(Time.sec 12);
  Alcotest.(check int) "reset released the backlog" 0 (Transport.in_flight ep);
  Sim_rt.heal engine;
  (* fresh connection reuses the released slots *)
  send_burst 30;
  Sim_rt.run engine ~until:(Time.ms 100);
  (* crash/recover while unacked slots are outstanding *)
  Sim_rt.crash engine 0;
  Sim_rt.run engine ~until:(Time.ms 300);
  Sim_rt.recover engine 0;
  Sim_rt.run engine ~until:(Time.sec 20);
  Alcotest.(check int) "drained after recovery" 0 (Transport.in_flight ep);
  let received = List.rev_map snd !got in
  (* the first 30 arrive FIFO; the partitioned 20 are lost to the reset;
     delivery after the sender's crash window is FIFO per connection *)
  let rec is_sorted = function a :: (b :: _ as rest) -> a < b && is_sorted rest | _ -> true in
  Alcotest.(check bool) "per-stream FIFO held" true (is_sorted (List.filter (fun i -> i <= 30) received));
  Alcotest.(check (list int)) "pre-partition stream intact" (List.init 30 (fun i -> i + 1))
    (List.filter (fun i -> i <= 30) received);
  Alcotest.(check (list int)) "partitioned burst stayed dead" []
    (List.filter (fun i -> i > 30 && i <= 50) received)

let prop_fifo_under_loss =
  QCheck.Test.make ~name:"transport: exactly-once FIFO under random loss/seed" ~count:25
    QCheck.(pair (int_bound 1000) (int_bound 30))
    (fun (seed, burst) ->
      let n_msgs = burst + 1 in
      let engine, transport = setup ~model:(Model.lossy 0.25) ~seed () in
      let got = collect transport 1 in
      let ep = Transport.endpoint transport 0 in
      for i = 1 to n_msgs do
        Transport.send ep ~dst:1 (Msg i)
      done;
      Sim_rt.run engine ~until:(Time.sec 30);
      List.rev_map snd !got = List.init n_msgs (fun i -> i + 1))

let suite =
  [
    Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    Alcotest.test_case "loss masked" `Quick test_loss_masked;
    Alcotest.test_case "heavy loss masked" `Quick test_heavy_loss_masked;
    Alcotest.test_case "bidirectional" `Quick test_bidirectional;
    Alcotest.test_case "self send" `Quick test_self_send;
    Alcotest.test_case "connection reset on partition" `Quick test_connection_reset_on_partition;
    Alcotest.test_case "fifo across short outage" `Quick test_no_stale_replay_after_reset;
    Alcotest.test_case "partition backlog drains FIFO" `Quick test_partition_backlog_fifo;
    Alcotest.test_case "broadcast raw" `Quick test_broadcast_raw;
    Alcotest.test_case "broadcast is best-effort" `Quick test_broadcast_best_effort_loss;
    Alcotest.test_case "send_raw datagram" `Quick test_send_raw_datagram;
    Alcotest.test_case "send_raw not retransmitted" `Quick test_send_raw_lossy_not_retransmitted;
    Alcotest.test_case "multiple handlers" `Quick test_two_handlers_both_run;
    Alcotest.test_case "pooled slots survive reset cycles" `Quick test_pooled_slots_survive_reset_cycles;
    QCheck_alcotest.to_alcotest prop_fifo_under_loss;
  ]
