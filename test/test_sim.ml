(* Tests for the discrete-event engine: timers, delivery, CPU queueing,
   topology, partitions, determinism. *)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt

type Payload.t += Ping of int

let make ?(model = Model.lossless) ?(n = 4) ?(seed = 1) () = Sim_rt.create ~model ~seed ~n_nodes:n ()

let test_time_units () =
  Alcotest.(check int) "ms" 1_000 (Time.ms 1);
  Alcotest.(check int) "sec" 1_000_000 (Time.sec 1);
  Alcotest.(check (float 1e-9)) "to ms" 2.5 (Time.to_float_ms 2_500)

let test_timer_ordering () =
  let engine = make () in
  let log = ref [] in
  let at label span =
    let (_ : Sim_rt.cancel) = Sim_rt.after engine span (fun () -> log := label :: !log) in
    ()
  in
  at "c" (Time.ms 30);
  at "a" (Time.ms 10);
  at "b" (Time.ms 20);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list string)) "fire order" [ "a"; "b"; "c" ] (List.rev !log)

let test_timer_same_instant_fifo () =
  let engine = make () in
  let log = ref [] in
  List.iter
    (fun label ->
      let (_ : Sim_rt.cancel) = Sim_rt.after engine (Time.ms 5) (fun () -> log := label :: !log) in
      ())
    [ "x"; "y"; "z" ];
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list string)) "insertion order at equal times" [ "x"; "y"; "z" ] (List.rev !log)

let test_timer_cancel () =
  let engine = make () in
  let fired = ref false in
  let cancel = Sim_rt.after engine (Time.ms 5) (fun () -> fired := true) in
  cancel ();
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_node_timer_skipped_when_crashed () =
  let engine = make () in
  let fired = ref false in
  let (_ : Sim_rt.cancel) = Sim_rt.after_node engine 2 (Time.ms 50) (fun () -> fired := true) in
  Sim_rt.crash engine 2;
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check bool) "timer of crashed node skipped" false !fired

let test_send_delivers () =
  let engine = make () in
  let got = ref [] in
  Sim_rt.subscribe engine 1 (fun ~src payload -> match payload with Ping n -> got := (src, n) :: !got | _ -> ());
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 7);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list (pair int int))) "delivered once" [ (0, 7) ] !got

let test_send_latency_positive () =
  let engine = make () in
  let delivered_at = ref Time.zero in
  Sim_rt.subscribe engine 1 (fun ~src:_ _ -> delivered_at := Sim_rt.now engine);
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 0);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check bool) "latency >= base + proc" true (!delivered_at >= Model.lossless.Model.link_base + Model.lossless.Model.proc_time)

let test_self_send () =
  let engine = make () in
  let got = ref 0 in
  Sim_rt.subscribe engine 0 (fun ~src:_ _ -> incr got);
  Sim_rt.send engine ~src:0 ~dst:0 (Ping 1);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check int) "self loop-back" 1 !got

let test_fifo_per_pair () =
  let engine = make () in
  let got = ref [] in
  Sim_rt.subscribe engine 1 (fun ~src:_ payload -> match payload with Ping n -> got := n :: !got | _ -> ());
  for i = 1 to 20 do
    Sim_rt.send engine ~src:0 ~dst:1 (Ping i)
  done;
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list int)) "fifo between a fixed pair (lossless, no jitter)" (List.init 20 (fun i -> i + 1))
    (List.rev !got)

let test_cpu_queue_serializes () =
  (* Two messages arriving together must be processed [proc_time] apart. *)
  let engine = make () in
  let times = ref [] in
  Sim_rt.subscribe engine 1 (fun ~src:_ _ -> times := Sim_rt.now engine :: !times);
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 1);
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 2);
  Sim_rt.run engine ~until:(Time.sec 1);
  match List.rev !times with
  | [ t1; t2 ] -> Alcotest.(check int) "second waits for cpu" Model.lossless.Model.proc_time (Time.diff t2 t1)
  | other -> Alcotest.failf "expected 2 deliveries, got %d" (List.length other)

let test_crashed_sender_drops () =
  let engine = make () in
  let got = ref 0 in
  Sim_rt.subscribe engine 1 (fun ~src:_ _ -> incr got);
  Sim_rt.crash engine 0;
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 1);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check int) "nothing from crashed sender" 0 !got

let test_crashed_receiver_drops () =
  let engine = make () in
  let got = ref 0 in
  Sim_rt.subscribe engine 1 (fun ~src:_ _ -> incr got);
  Sim_rt.crash engine 1;
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 1);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check int) "nothing to crashed receiver" 0 !got

let test_partition_blocks () =
  let engine = make () in
  let got = ref 0 in
  Sim_rt.subscribe engine 2 (fun ~src:_ _ -> incr got);
  Sim_rt.set_partition engine [ [ 0; 1 ]; [ 2; 3 ] ];
  Sim_rt.send engine ~src:0 ~dst:2 (Ping 1);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check int) "across partition" 0 !got;
  Sim_rt.heal engine;
  Sim_rt.send engine ~src:0 ~dst:2 (Ping 2);
  Sim_rt.run engine ~until:(Time.sec 2);
  Alcotest.(check int) "after heal" 1 !got

let test_partition_cuts_in_flight () =
  let engine = make () in
  let got = ref 0 in
  Sim_rt.subscribe engine 1 (fun ~src:_ _ -> incr got);
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 1);
  (* partition installed before the message's arrival time *)
  Sim_rt.set_partition engine [ [ 0 ]; [ 1; 2; 3 ] ];
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check int) "in-flight message cut" 0 !got

let test_topology_validation () =
  let topology = Topology.create ~n_nodes:3 in
  Alcotest.check_raises "missing node"
    (Invalid_argument "Topology.set_partition: node 2 not covered") (fun () ->
      Topology.set_partition topology [ [ 0 ]; [ 1 ] ]);
  Alcotest.check_raises "duplicate node"
    (Invalid_argument "Topology.set_partition: node 0 listed twice") (fun () ->
      Topology.set_partition topology [ [ 0; 1 ]; [ 0; 2 ] ])

let test_topology_component () =
  let topology = Topology.create ~n_nodes:5 in
  Topology.set_partition topology [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  Alcotest.(check (list int)) "component of 1" [ 0; 1; 2 ] (Topology.component_of topology 1);
  Topology.crash topology 2;
  Alcotest.(check (list int)) "component excludes crashed" [ 0; 1 ] (Topology.component_of topology 0);
  Alcotest.(check (list int)) "crashed node isolated" [] (Topology.component_of topology 2);
  Topology.recover topology 2;
  Topology.heal topology;
  Alcotest.(check (list int)) "healed" [ 0; 1; 2; 3; 4 ] (Topology.component_of topology 0)

let test_lossy_model_drops () =
  let engine = make ~model:(Model.lossy 1.0) () in
  let got = ref 0 in
  Sim_rt.subscribe engine 1 (fun ~src:_ _ -> incr got);
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 1);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check int) "p=1 loses all" 0 !got;
  Alcotest.(check int) "drop counted" 1 (Sim_rt.stats engine).Sim_rt.wire_dropped

let test_determinism_across_runs () =
  let run () =
    let engine = make ~model:Model.default ~seed:77 () in
    let log = ref [] in
    for node = 0 to 3 do
      Sim_rt.subscribe engine node (fun ~src payload ->
          match payload with Ping n -> log := (Sim_rt.now engine, src, node, n) :: !log | _ -> ())
    done;
    for i = 1 to 30 do
      Sim_rt.send engine ~src:(i mod 4) ~dst:((i + 1) mod 4) (Ping i)
    done;
    Sim_rt.run engine ~until:(Time.sec 1);
    !log
  in
  Alcotest.(check bool) "identical event logs from same seed" true (run () = run ())

let test_fault_script () =
  let engine = make () in
  let got = ref 0 in
  Sim_rt.subscribe engine 1 (fun ~src:_ _ -> incr got);
  Fault.install engine
    [ (Time.ms 10, Fault.Partition [ [ 0 ]; [ 1; 2; 3 ] ]); (Time.ms 50, Fault.Heal); (Time.ms 80, Fault.Crash 0) ];
  (* before the partition: delivered *)
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 1);
  Sim_rt.run engine ~until:(Time.ms 20);
  (* during the partition: dropped *)
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 2);
  Sim_rt.run engine ~until:(Time.ms 60);
  (* after heal: delivered *)
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 3);
  Sim_rt.run engine ~until:(Time.ms 85);
  (* after crash of 0: dropped *)
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 4);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check int) "fault script shapes delivery" 2 !got

let test_engine_stats () =
  let engine = make () in
  Sim_rt.subscribe engine 1 (fun ~src:_ _ -> ());
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 1);
  Sim_rt.run_span engine (Time.ms 100);
  Sim_rt.set_partition engine [ [ 0 ]; [ 1; 2; 3 ] ];
  Sim_rt.send engine ~src:0 ~dst:1 (Ping 2);
  Sim_rt.run engine ~until:(Time.sec 1);
  let stats = Sim_rt.stats engine in
  Alcotest.(check int) "sent counts reachable sends" 1 stats.Sim_rt.sent;
  Alcotest.(check int) "delivered" 1 stats.Sim_rt.delivered;
  Alcotest.(check int) "unreachable dropped" 1 stats.Sim_rt.unreachable_dropped

(* Regressions pinning timer-cancellation semantics across the
   heap->wheel swap.  The heap tolerated stale/cancelled entries popping
   late (a [cancelled] ref consulted at dispatch); the wheel must make
   cancelled events impossible to fire while keeping stale cancels
   harmless. *)

let test_timer_cancel_from_earlier_timer () =
  let engine = make () in
  let fired = ref false in
  let cancel_b = ref (fun () -> ()) in
  let (_ : Sim_rt.cancel) =
    Sim_rt.after engine (Time.ms 5) (fun () -> !cancel_b ())
  in
  cancel_b := Sim_rt.after engine (Time.ms 10) (fun () -> fired := true);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check bool) "timer cancelled mid-run never fires" false !fired

let test_timer_cancel_same_instant () =
  let engine = make () in
  let log = ref [] in
  let cancel_b = ref (fun () -> ()) in
  let (_ : Sim_rt.cancel) =
    Sim_rt.after engine (Time.ms 5) (fun () ->
        log := "a" :: !log;
        !cancel_b ())
  in
  cancel_b := Sim_rt.after engine (Time.ms 5) (fun () -> log := "b" :: !log);
  let (_ : Sim_rt.cancel) = Sim_rt.after engine (Time.ms 5) (fun () -> log := "c" :: !log) in
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check (list string)) "co-scheduled cancelled timer skipped, rest fire" [ "a"; "c" ] (List.rev !log)

let test_timer_stale_cancel_after_fire () =
  let engine = make () in
  let first = ref false and second = ref false in
  let cancel_first = Sim_rt.after engine (Time.ms 5) (fun () -> first := true) in
  Sim_rt.run engine ~until:(Time.ms 20);
  Alcotest.(check bool) "first fired" true !first;
  (* the new timer reuses the pooled slot the first one occupied *)
  let (_ : Sim_rt.cancel) = Sim_rt.after engine (Time.ms 5) (fun () -> second := true) in
  cancel_first ();
  cancel_first ();
  Sim_rt.run engine ~until:(Time.ms 40);
  Alcotest.(check bool) "stale cancel cannot kill the slot's new occupant" true !second

let test_in_flight_accounting () =
  let engine = make () in
  Sim_rt.subscribe engine 1 (fun ~src:_ _ -> ());
  for i = 1 to 5 do
    Sim_rt.send engine ~src:0 ~dst:1 (Ping i)
  done;
  Alcotest.(check int) "all sends in flight" 5 (Sim_rt.in_flight engine);
  Sim_rt.run engine ~until:(Time.sec 1);
  Alcotest.(check int) "drained" 0 (Sim_rt.in_flight engine);
  let stats = Sim_rt.stats engine in
  Alcotest.(check int) "fault-free: sent = delivered" stats.Sim_rt.sent stats.Sim_rt.delivered

let test_run_until_idle () =
  let engine = make () in
  let fired = ref false in
  let (_ : Sim_rt.cancel) = Sim_rt.after engine (Time.ms 5) (fun () -> fired := true) in
  Sim_rt.run engine ~until:(Time.sec 2);
  Alcotest.(check bool) "drained" true !fired;
  (* regression: the clock must land on the horizon, not on the last
     event *)
  Alcotest.(check int) "now reaches the limit" (Time.sec 2) (Sim_rt.now engine)

let suite =
  [
    Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "timer ordering" `Quick test_timer_ordering;
    Alcotest.test_case "same-instant fifo" `Quick test_timer_same_instant_fifo;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "node timer skipped when crashed" `Quick test_node_timer_skipped_when_crashed;
    Alcotest.test_case "send delivers" `Quick test_send_delivers;
    Alcotest.test_case "send latency" `Quick test_send_latency_positive;
    Alcotest.test_case "self send" `Quick test_self_send;
    Alcotest.test_case "fifo per pair" `Quick test_fifo_per_pair;
    Alcotest.test_case "cpu queue serializes" `Quick test_cpu_queue_serializes;
    Alcotest.test_case "crashed sender drops" `Quick test_crashed_sender_drops;
    Alcotest.test_case "crashed receiver drops" `Quick test_crashed_receiver_drops;
    Alcotest.test_case "partition blocks" `Quick test_partition_blocks;
    Alcotest.test_case "partition cuts in-flight" `Quick test_partition_cuts_in_flight;
    Alcotest.test_case "topology validation" `Quick test_topology_validation;
    Alcotest.test_case "topology components" `Quick test_topology_component;
    Alcotest.test_case "lossy model drops" `Quick test_lossy_model_drops;
    Alcotest.test_case "determinism across runs" `Quick test_determinism_across_runs;
    Alcotest.test_case "fault script" `Quick test_fault_script;
    Alcotest.test_case "engine stats" `Quick test_engine_stats;
    Alcotest.test_case "timer cancel from earlier timer" `Quick test_timer_cancel_from_earlier_timer;
    Alcotest.test_case "timer cancel at same instant" `Quick test_timer_cancel_same_instant;
    Alcotest.test_case "stale cancel after fire" `Quick test_timer_stale_cancel_after_fire;
    Alcotest.test_case "in-flight accounting" `Quick test_in_flight_accounting;
    Alcotest.test_case "run until idle" `Quick test_run_until_idle;
  ]
