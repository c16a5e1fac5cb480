(* Tests for the experiment harness: statistics helpers, the Tables 3/4
   scenario walkthrough, and a smoke run of the Figure 2 pipeline. *)

module Metrics = Plwg_harness.Metrics
module Scenario = Plwg_harness.Scenario
module Figure2 = Plwg_harness.Figure2
module Stack = Plwg_harness.Stack

let test_mean () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Metrics.mean []);
  Alcotest.(check (float 1e-9)) "values" 2.0 (Metrics.mean [ 1.0; 2.0; 3.0 ])

let test_percentile () =
  let samples = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Plwg_obs.Metrics.percentile 0.5 samples);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Plwg_obs.Metrics.percentile 0.95 samples);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Plwg_obs.Metrics.percentile 0.0 samples);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Plwg_obs.Metrics.percentile 1.0 samples);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Plwg_obs.Metrics.percentile 0.5 [])

let test_stddev () =
  Alcotest.(check (float 1e-9)) "constant" 0.0 (Metrics.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-6)) "spread" (sqrt 2.0) (Metrics.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_scenario_reaches_all_stages () =
  let outcome = Scenario.run ~seed:90 () in
  Alcotest.(check bool) "converged" true outcome.Scenario.converged;
  Alcotest.(check (list string)) "invariants" [] outcome.Scenario.trace_violations;
  let labels = List.map (fun s -> s.Scenario.label) outcome.Scenario.stages in
  List.iter
    (fun expected -> Alcotest.(check bool) (expected ^ " reached") true (List.mem expected labels))
    [ "1) merged naming service"; "2) merged HwGs"; "3) switched LwGs"; "4) merged LwGs" ];
  (* the Table 3 stage really shows the criss-cross: two live mappings *)
  let stage1 = List.find (fun s -> s.Scenario.label = "1) merged naming service") outcome.Scenario.stages in
  let lines = String.split_on_char '\n' stage1.Scenario.rendering in
  Alcotest.(check int) "two LWGs rendered" 2 (List.length (List.filter (fun l -> l <> "") lines));
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool) "two concurrent mappings per LWG" true (String.contains line ','))
    lines

let test_scenario_deterministic () =
  let a = Scenario.run ~seed:91 () and b = Scenario.run ~seed:91 () in
  Alcotest.(check (list string)) "same stages"
    (List.map (fun s -> s.Scenario.label) a.Scenario.stages)
    (List.map (fun s -> s.Scenario.label) b.Scenario.stages);
  List.iter2
    (fun sa sb ->
      Alcotest.(check (float 1e-9)) "same timing" sa.Scenario.reached_at_ms sb.Scenario.reached_at_ms)
    a.Scenario.stages b.Scenario.stages

let test_figure2_smoke () =
  (* one cheap point per mode: sanity of the measurement pipeline *)
  List.iter
    (fun mode ->
      let r = Figure2.run ~mode ~n:1 ~seed:7 in
      Alcotest.(check bool) "latency positive" true (r.Figure2.latency_ms > 0.0);
      Alcotest.(check bool) "latency sane" true (r.Figure2.latency_ms < 50.0);
      Alcotest.(check bool) "throughput positive" true (r.Figure2.throughput_msg_s > 0.0);
      Alcotest.(check bool) "recovery finite" true (Float.is_finite r.Figure2.recovery_ms))
    [ Stack.Direct; Stack.Static; Stack.Dynamic ]

let test_figure2_headline_shape () =
  (* the paper's claims at a mid-size point, as a regression guard *)
  let n = 8 in
  let direct = Figure2.run ~mode:Stack.Direct ~n ~seed:7 in
  let dynamic = Figure2.run ~mode:Stack.Dynamic ~n ~seed:7 in
  Alcotest.(check bool) "no-lwg recovery slower than dynamic" true
    (direct.Figure2.recovery_ms > dynamic.Figure2.recovery_ms);
  Alcotest.(check bool) "dynamic keeps full throughput" true
    (dynamic.Figure2.throughput_msg_s > 0.9 *. direct.Figure2.throughput_msg_s)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "scenario reaches all stages" `Slow test_scenario_reaches_all_stages;
    Alcotest.test_case "scenario deterministic" `Slow test_scenario_deterministic;
    Alcotest.test_case "figure2 smoke" `Slow test_figure2_smoke;
    Alcotest.test_case "figure2 headline shape" `Slow test_figure2_headline_shape;
  ]
