(* Tests for the observability layer: nearest-rank percentiles, the
   metrics registry, the ring-buffered trace sink, JSONL round-trips,
   and the trace-driven invariant checkers (including a full run of the
   Figure-4 heal scenario with the sink attached). *)

module Obs = Plwg_obs
module Event = Plwg_obs.Event
module Sink = Plwg_obs.Sink
module Metrics = Plwg_obs.Metrics
module Trace_check = Plwg_harness.Trace_check

(* ---------------- percentiles ---------------- *)

let ten = List.init 10 (fun i -> float_of_int (i + 1))

let test_percentile_nearest_rank () =
  (* regression: the truncating index under-reported the tail; p99 of
     ten samples must be the maximum, not the 9th value *)
  Alcotest.(check (float 0.0)) "p99 of 1..10" 10.0 (Metrics.percentile 0.99 ten);
  Alcotest.(check (float 0.0)) "p50 of 1..10" 5.0 (Metrics.percentile 0.50 ten);
  Alcotest.(check (float 0.0)) "p95 of 1..10" 10.0 (Metrics.percentile 0.95 ten);
  Alcotest.(check (float 0.0)) "p100 clamps" 10.0 (Metrics.percentile 1.0 ten);
  Alcotest.(check (float 0.0)) "p0 clamps to min" 1.0 (Metrics.percentile 0.0 ten);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Metrics.percentile 0.99 []);
  Alcotest.(check (float 0.0)) "singleton" 7.0 (Metrics.percentile 0.5 [ 7.0 ]);
  Alcotest.(check (float 0.0)) "unsorted input" 10.0 (Metrics.percentile 0.99 (List.rev ten))

let test_percentile_shared_with_harness () =
  (* the harness computes its percentiles with this one implementation,
     so the p99 regression stays fixed there too *)
  Alcotest.(check (float 0.0)) "harness p99 of 1..10" 10.0 (Metrics.percentile 0.99 ten);
  Alcotest.(check (float 0.0)) "harness p50 of 1..10" 5.0 (Metrics.percentile 0.50 ten)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m ~by:4 "a";
  Metrics.incr m "b";
  Alcotest.(check int) "counter a" 5 (Metrics.counter m "a");
  Alcotest.(check int) "counter b" 1 (Metrics.counter m "b");
  Alcotest.(check int) "unknown counter" 0 (Metrics.counter m "c");
  List.iter (fun v -> Metrics.observe m "lat" v) ten;
  (match Metrics.summary m "lat" with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      Alcotest.(check int) "count" 10 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "mean" 5.5 s.Metrics.mean;
      Alcotest.(check (float 0.0)) "min" 1.0 s.Metrics.min;
      Alcotest.(check (float 0.0)) "max" 10.0 s.Metrics.max;
      Alcotest.(check (float 0.0)) "p99 is the max" 10.0 s.Metrics.p99);
  Alcotest.(check (option reject)) "no samples, no summary" None
    (Option.map ignore (Metrics.summary m "nothing"))

(* ---------------- sink ---------------- *)

let sent i = Event.Msg_delivered { src = i; dst = i + 1; kind = "ping"; latency_us = 10 }

let test_sink_orders_events () =
  let sink = Sink.create ~capacity:16 () in
  List.iter (fun i -> Sink.emit sink ~at_us:(i * 10) (sent i)) [ 0; 1; 2; 3 ];
  let ats = List.map (fun e -> e.Event.at_us) (Sink.to_list sink) in
  Alcotest.(check (list int)) "oldest first" [ 0; 10; 20; 30 ] ats;
  Alcotest.(check int) "length" 4 (Sink.length sink);
  Alcotest.(check int) "nothing dropped" 0 (Sink.dropped sink)

let test_sink_ring_overwrites_oldest () =
  let sink = Sink.create ~capacity:4 () in
  List.iter (fun i -> Sink.emit sink ~at_us:i (sent i)) [ 0; 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length capped" 4 (Sink.length sink);
  Alcotest.(check int) "dropped" 2 (Sink.dropped sink);
  let ats = List.map (fun e -> e.Event.at_us) (Sink.to_list sink) in
  Alcotest.(check (list int)) "newest window survives" [ 2; 3; 4; 5 ] ats;
  Sink.clear sink;
  Alcotest.(check int) "cleared" 0 (Sink.length sink)

(* ---------------- JSONL round-trip ---------------- *)

let one_of_each =
  [
    Event.Msg_dropped { src = 0; dst = 1; kind = "seg(c1,#0,hw-data(\"quoted\"))"; reason = "wire" };
    Event.Msg_delivered { src = 0; dst = 1; kind = "seg"; latency_us = 120 };
    Event.Msg_dropped { src = 1; dst = 2; kind = "ack"; reason = "unreachable" };
    Event.View_installed { layer = Event.Hwg; node = 2; group = "g1.n0"; view_seq = 3; view_coord = 2; members = [ 0; 1; 2 ] };
    Event.Group_delivered
      { layer = Event.Lwg; node = 1; group = "g7.n0"; view_seq = 3; view_coord = 2; origin = 0; local_id = 4 };
    Event.Group_left { layer = Event.Lwg; node = 1; group = "g7.n0" };
    Event.Flush_begin { node = 0; group = "g1.n0"; epoch = 3 };
    Event.Flush_end { node = 0; group = "g1.n0"; epoch = 3; outcome = "installed" };
    Event.Ns_request { node = 1; req = 7; op = "ns-set"; server = 4 };
    Event.Ns_reply { node = 1; req = 7; rtt_us = 800 };
    Event.Ns_retry { node = 1; req = 8; attempt = 2; server = 5 };
    Event.Ns_give_up { node = 1; req = 8; attempts = 5 };
    Event.Ns_conflict { server = 4; lwg = "g1.n0" };
    Event.Policy_decision { node = 3; rule = "share"; subject = "g9.n1"; decision = "collapse-into g2.n0" };
    Event.Reconcile_step { node = 0; step = Event.Mapping_reconciliation; group = "g1.n0" };
    Event.Peer_status { node = 0; peer = 3; reachable = false };
    Event.Partition_changed { classes = [ [ 0; 1 ]; [ 2; 3 ] ] };
    Event.Healed;
    Event.Node_crashed { node = 2 };
    Event.Node_recovered { node = 2 };
  ]

let test_jsonl_round_trip () =
  let entries = List.mapi (fun i event -> { Event.at_us = i * 100; event }) one_of_each in
  let text =
    String.concat "\n" (List.map (fun e -> Obs.Json.to_string (Event.to_json e)) entries) ^ "\n\n"
  in
  let file = Filename.temp_file "plwg_trace" ".jsonl" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text);
  let back = Sink.load_file file in
  Sys.remove file;
  Alcotest.(check int) "all lines parsed" (List.length entries) (List.length back);
  List.iter2
    (fun original parsed ->
      Alcotest.(check bool) (Printf.sprintf "entry at %dus round-trips" original.Event.at_us) true (original = parsed))
    entries back

let test_sink_file_round_trip () =
  let sink = Sink.create ~capacity:64 () in
  List.iteri (fun i event -> Sink.emit sink ~at_us:i event) one_of_each;
  let path = Filename.temp_file "plwg_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sink.write_file sink path;
      let back = Sink.load_file path in
      Alcotest.(check bool) "file round-trips" true (Sink.to_list sink = back))

(* ---------------- checkers on hand-written traces ---------------- *)

let at at_us event = { Event.at_us; event }

let test_flush_pairing () =
  let balanced =
    [
      at 0 (Event.Flush_begin { node = 0; group = "g"; epoch = 1 });
      at 5 (Event.Flush_end { node = 0; group = "g"; epoch = 1; outcome = "installed" });
    ]
  in
  Alcotest.(check (list string)) "balanced" [] (Trace_check.check_flush_pairing balanced);
  let open_flush = [ at 0 (Event.Flush_begin { node = 0; group = "g"; epoch = 1 }) ] in
  Alcotest.(check int) "unclosed flagged" 1 (List.length (Trace_check.check_flush_pairing open_flush));
  Alcotest.(check (list string)) "allow_open tolerates it" []
    (Trace_check.check_flush_pairing ~allow_open:true open_flush);
  let orphan_end = [ at 5 (Event.Flush_end { node = 0; group = "g"; epoch = 1; outcome = "installed" }) ] in
  Alcotest.(check int) "end without begin flagged" 1 (List.length (Trace_check.check_flush_pairing orphan_end))

let deliver ~at:at_us ~src ~dst ~sent_before =
  at at_us (Event.Msg_delivered { src; dst; kind = "seg(c1,#0,hw-data(x))"; latency_us = at_us - sent_before })

let test_cross_partition_checker () =
  let cut = at 100 (Event.Partition_changed { classes = [ [ 0; 1 ]; [ 2; 3 ] ] }) in
  (* disconnected at both send and delivery: a violation *)
  let bad = [ cut; deliver ~at:300 ~src:0 ~dst:2 ~sent_before:200 ] in
  Alcotest.(check int) "data across the cut flagged" 1
    (List.length (Trace_check.check_no_cross_partition_delivery ~n_nodes:4 bad));
  (* sent while still connected, delivered just after the cut: the
     benign in-NIC race the engine permits *)
  let race = [ cut; deliver ~at:150 ~src:0 ~dst:2 ~sent_before:50 ] in
  Alcotest.(check (list string)) "in-flight race tolerated" []
    (Trace_check.check_no_cross_partition_delivery ~n_nodes:4 race);
  (* same side of the cut: fine *)
  let same_side = [ cut; deliver ~at:300 ~src:0 ~dst:1 ~sent_before:200 ] in
  Alcotest.(check (list string)) "same component fine" []
    (Trace_check.check_no_cross_partition_delivery ~n_nodes:4 same_side);
  (* control traffic (not hw-data) is not checked *)
  let control =
    [ cut; at 300 (Event.Msg_delivered { src = 0; dst = 2; kind = "gossip(db)"; latency_us = 100 }) ]
  in
  Alcotest.(check (list string)) "control traffic ignored" []
    (Trace_check.check_no_cross_partition_delivery ~n_nodes:4 control);
  (* after the heal everything reconnects *)
  let healed = [ cut; at 400 Event.Healed; deliver ~at:600 ~src:0 ~dst:2 ~sent_before:500 ] in
  Alcotest.(check (list string)) "healed reconnects" []
    (Trace_check.check_no_cross_partition_delivery ~n_nodes:4 healed)

let step s = Event.Reconcile_step { node = 0; step = s; group = "g" }

let test_reconcile_order () =
  let heal = at 100 Event.Healed in
  let good =
    [
      heal;
      at 110 (step Event.Global_discovery);
      at 120 (step Event.Mapping_reconciliation);
      at 130 (step Event.Local_discovery);
      at 140 (step Event.Merge_views);
    ]
  in
  Alcotest.(check (list string)) "paper order accepted" [] (Trace_check.check_reconcile_order good);
  (* a step may be absent *)
  let partial = [ heal; at 110 (step Event.Local_discovery); at 120 (step Event.Merge_views) ] in
  Alcotest.(check (list string)) "subsequence accepted" [] (Trace_check.check_reconcile_order partial);
  let bad = [ heal; at 110 (step Event.Merge_views); at 120 (step Event.Global_discovery) ] in
  Alcotest.(check int) "inversion flagged" 1 (List.length (Trace_check.check_reconcile_order bad));
  (* merges before the (last) heal are ordinary operation, not part of
     the Section-6 sequence *)
  let pre_heal_noise = at 50 (step Event.Merge_views) :: good in
  Alcotest.(check (list string)) "pre-heal steps ignored" []
    (Trace_check.check_reconcile_order pre_heal_noise)

(* ---------------- the Figure-4 heal scenario, traced ---------------- *)

let test_scenario_trace_invariants () =
  let obs = Obs.create () in
  let outcome = Plwg_harness.Scenario.run ~obs () in
  Alcotest.(check bool) "scenario converges" true outcome.Plwg_harness.Scenario.converged;
  Alcotest.(check (list string)) "no trace violations" [] outcome.Plwg_harness.Scenario.trace_violations;
  let entries = Sink.to_list obs.Obs.sink in
  Alcotest.(check bool) "trace is non-trivial" true (List.length entries > 1000);
  (* the post-heal reconciliation runs all four steps of Section 6, in
     the paper's order *)
  let steps = Trace_check.reconcile_sequence entries in
  Alcotest.(check (list string)) "all four steps in paper order"
    (List.map Event.reconcile_step_to_string
       [ Event.Global_discovery; Event.Mapping_reconciliation; Event.Local_discovery; Event.Merge_views ])
    (List.map Event.reconcile_step_to_string steps);
  (* every flush closed: check_all above already enforced it, but be
     explicit that this holds without allow_open *)
  Alcotest.(check (list string)) "flush pairing strict" [] (Trace_check.check_flush_pairing entries);
  (* the sink's metrics side saw traffic too *)
  Alcotest.(check bool) "messages counted" true (Metrics.counter obs.Obs.metrics "engine.delivered" > 0)

(* ---------------- the oracles see real evidence ---------------- *)

(* A checker fed no evidence passes vacuously.  These pin that the
   events each oracle keys on are really in the traces of real runs. *)

let test_scenario_has_data () =
  let obs = Obs.create () in
  let outcome = Plwg_harness.Scenario.run ~obs ~seed:42 () in
  Alcotest.(check (list string)) "no trace violations" [] outcome.Plwg_harness.Scenario.trace_violations;
  let data =
    List.filter
      (fun { Event.event; _ } ->
        match event with Event.Msg_delivered { kind; _ } -> Trace_check.is_data kind | _ -> false)
      (Sink.to_list obs.Obs.sink)
  in
  Alcotest.(check bool) "DATA deliveries for the cross-partition check" true (data <> [])

module Stack = Plwg_harness.Stack

type Plwg_sim.Payload.t += Hello

let dynamic_run ?obs () =
  let stack = Stack.create ?obs ~mode:Stack.Dynamic ~seed:3 ~n_app:3 () in
  let lwg = Plwg.Service.fresh_gid stack.Stack.services.(0) in
  Array.iter (fun s -> Plwg.Service.join s lwg) stack.Stack.services;
  Stack.run stack (Plwg_sim.Time.sec 8);
  Plwg.Service.send stack.Stack.services.(1) lwg Hello;
  Stack.run stack (Plwg_sim.Time.sec 1);
  stack

let test_dynamic_traces_both_layers () =
  let stack = dynamic_run () in
  let layers =
    List.filter_map
      (function { Event.event = Event.Group_delivered { layer; _ }; _ } -> Some layer | _ -> None)
      (Trace_check.entries stack.Stack.obs.Obs.sink)
  in
  let delivered layer = List.length (List.filter (fun l -> l = layer) layers) in
  Alcotest.(check int) "lwg: one message, three members" 3 (delivered Event.Lwg);
  Alcotest.(check bool) "hwg: the carrier delivered it" true (delivered Event.Hwg >= 3);
  Alcotest.(check (list string)) "vs holds" [] (Stack.check_vs stack)

let test_stack_vs_reports_truncation () =
  let obs = Obs.create ~capacity:64 () in
  let stack = dynamic_run ~obs () in
  let dropped = Sink.dropped obs.Obs.sink in
  Alcotest.(check bool) "the ring overflowed" true (dropped > 0);
  Alcotest.(check (list string)) "truncation reported, no clean result"
    [ Printf.sprintf "trace truncated: %d entries dropped" dropped ]
    (Stack.check_vs stack);
  Alcotest.check_raises "entries refuse a partial trace"
    (Failure (Printf.sprintf "trace truncated: %d entries dropped" dropped))
    (fun () -> ignore (Trace_check.entries obs.Obs.sink))

(* The oracle scans every traced delivery's kind; the scan must not
   allocate. *)
let test_is_data_allocates_nothing () =
  let kinds = [| "hwg:hw-data"; "transport-seg"; "hw-dat"; "" |] in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    if Trace_check.is_data kinds.(i land 3) then incr hits
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "one kind in four is DATA" 2_500 !hits;
  Alcotest.(check (float 0.)) "10,000 scans allocate 0 minor words" 0. words

let suite =
  [
    Alcotest.test_case "percentile nearest rank" `Quick test_percentile_nearest_rank;
    Alcotest.test_case "percentile shared with harness" `Quick test_percentile_shared_with_harness;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "sink orders events" `Quick test_sink_orders_events;
    Alcotest.test_case "sink ring overwrites oldest" `Quick test_sink_ring_overwrites_oldest;
    Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "sink file round trip" `Quick test_sink_file_round_trip;
    Alcotest.test_case "flush pairing checker" `Quick test_flush_pairing;
    Alcotest.test_case "cross-partition checker" `Quick test_cross_partition_checker;
    Alcotest.test_case "reconcile order checker" `Quick test_reconcile_order;
    Alcotest.test_case "scenario trace invariants" `Quick test_scenario_trace_invariants;
    Alcotest.test_case "scenario 42 has data deliveries" `Quick test_scenario_has_data;
    Alcotest.test_case "dynamic run traces both layers" `Quick test_dynamic_traces_both_layers;
    Alcotest.test_case "stack vs check reports truncation" `Quick test_stack_vs_reports_truncation;
    Alcotest.test_case "is_data allocates nothing" `Quick test_is_data_allocates_nothing;
  ]
