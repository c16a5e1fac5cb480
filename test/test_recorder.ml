(* Self-tests for the virtual-synchrony invariant checkers: feed
   synthetic traces with known defects and assert each checker flags
   them (a checker that never fires proves nothing).  The checkers run
   through [Trace_check.check_vs]; each one's violation text names the
   defect it found. *)

module Event = Plwg_obs.Event
module Trace_check = Plwg_harness.Trace_check

let group = "g1.n0"

(* a view id is (coordinator, seq), members a node list *)
type view = { coord : int; seq : int; members : int list }

let view ~coord ~seq members = { coord; seq; members }

let installed node v =
  Event.View_installed
    { layer = Event.Hwg; node; group; view_seq = v.seq; view_coord = v.coord; members = v.members }

let delivered node v origin local_id =
  Event.Group_delivered
    { layer = Event.Hwg; node; group; view_seq = v.seq; view_coord = v.coord; origin; local_id }

let record events = List.mapi (fun i event -> { Event.at_us = i * 1000; event }) events

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  go 0

(* [check_vs] reports the defect, in a violation naming it. *)
let caught ~naming violations =
  Alcotest.(check bool) ("caught: " ^ naming) true (List.exists (contains naming) violations)

let test_clean_trace_passes () =
  let v1 = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let v2 = view ~coord:0 ~seq:2 [ 0; 1; 2 ] in
  let trace =
    [
      installed 0 v1;
      installed 1 v1;
      delivered 0 v1 1 0;
      delivered 1 v1 1 0;
      installed 0 v2;
      installed 1 v2;
      installed 2 v2;
    ]
  in
  Alcotest.(check (list string)) "clean" [] (Trace_check.check_vs (record trace))

let test_detects_self_exclusion () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let violations = Trace_check.check_vs (record [ installed 5 v ]) in
  caught ~naming:"which does not contain it" violations

let test_detects_view_disagreement () =
  let va = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let vb = view ~coord:0 ~seq:1 [ 0; 1; 2 ] (* same id, different members *) in
  let violations = Trace_check.check_vs (record [ installed 0 va; installed 1 vb ]) in
  caught ~naming:"elsewhere" violations

let test_detects_non_monotone_installs () =
  let v2 = view ~coord:0 ~seq:2 [ 0 ] in
  let v1 = view ~coord:0 ~seq:1 [ 0 ] in
  let violations = Trace_check.check_vs (record [ installed 0 v2; installed 0 v1 ]) in
  caught ~naming:"seq not increasing" violations

let test_detects_duplicate_install () =
  let v = view ~coord:0 ~seq:1 [ 0 ] in
  let violations = Trace_check.check_vs (record [ installed 0 v; installed 0 v ]) in
  caught ~naming:"installed v1@n0 twice" violations

let test_detects_duplicate_delivery () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let trace = [ installed 0 v; delivered 0 v 1 0; delivered 0 v 1 0 ] in
  let violations = Trace_check.check_vs (record trace) in
  caught ~naming:"delivered message" violations

let test_detects_fifo_violation () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let trace = [ installed 0 v; delivered 0 v 1 5; delivered 0 v 1 3 ] in
  let violations = Trace_check.check_vs (record trace) in
  caught ~naming:"FIFO violation" violations

let test_detects_vs_violation () =
  (* nodes 0 and 1 both go v1 -> v2, but node 1 delivers an extra
     message in v1: the defining virtual-synchrony violation *)
  let v1 = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let v2 = view ~coord:0 ~seq:2 [ 0; 1 ] in
  let trace =
    [
      installed 0 v1;
      installed 1 v1;
      delivered 0 v1 1 0;
      delivered 1 v1 1 0;
      delivered 1 v1 1 1;
      installed 0 v2;
      installed 1 v2;
    ]
  in
  let violations = Trace_check.check_vs (record trace) in
  caught ~naming:"virtual synchrony violated" violations

let test_vs_allows_divergent_successors () =
  (* partitionable VS: nodes that install DIFFERENT successor views may
     deliver different sets — must NOT be flagged *)
  let v1 = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let v2a = view ~coord:0 ~seq:2 [ 0 ] in
  let v2b = view ~coord:1 ~seq:2 [ 1 ] in
  let trace =
    [
      installed 0 v1;
      installed 1 v1;
      delivered 0 v1 1 0;
      (* node 1 delivered nothing before its own successor *)
      installed 0 v2a;
      installed 1 v2b;
    ]
  in
  Alcotest.(check (list string)) "no false positive" [] (Trace_check.check_vs (record trace))

let test_detects_total_order_violation () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let trace =
    [ installed 0 v; installed 1 v; delivered 0 v 0 0; delivered 0 v 1 0; delivered 1 v 1 0; delivered 1 v 0 0 ]
  in
  let violations = Trace_check.check_total_order ~layer:Event.Hwg ~group (record trace) in
  Alcotest.(check bool) "caught" true (violations <> [])

let test_total_order_prefixes_ok () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let trace =
    [
      installed 0 v;
      installed 1 v;
      delivered 0 v 0 0;
      delivered 0 v 1 0;
      delivered 1 v 0 0 (* node 1 is simply behind: a prefix *);
    ]
  in
  Alcotest.(check (list string)) "prefix allowed" []
    (Trace_check.check_total_order ~layer:Event.Hwg ~group (record trace))

let test_installs_of () =
  let v1 = view ~coord:0 ~seq:1 [ 0 ] in
  let v2 = view ~coord:0 ~seq:2 [ 0 ] in
  let trace = record [ installed 0 v1; installed 0 v2 ] in
  Alcotest.(check int) "two installs" 2 (List.length (Trace_check.installs_of ~layer:Event.Hwg ~node:0 ~group trace));
  Alcotest.(check int) "none at the other layer" 0
    (List.length (Trace_check.installs_of ~layer:Event.Lwg ~node:0 ~group trace))

(* The offline path end to end: a dumped trace whose one group-delivered
   line appears twice makes [plwg check] exit 1 naming the duplicate. *)
let test_check_cli_duplicate_delivery () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let line event = Plwg_obs.Json.to_string (Event.to_json { Event.at_us = 5; event }) in
  let lines = [ line (installed 0 v); line (installed 1 v); line (delivered 0 v 1 0) ] in
  let duplicated = lines @ [ line (delivered 0 v 1 0) ] in
  let run lines =
    let trace = Filename.temp_file "plwg_check" ".jsonl" and out = Filename.temp_file "plwg_check" ".out" in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ trace; out ])
      (fun () ->
        Out_channel.with_open_text trace (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) lines);
        let code =
          Sys.command (Filename.quote_command "../bin/plwg_cli.exe" [ "check"; trace ] ~stdout:out)
        in
        (code, In_channel.with_open_text out In_channel.input_all))
  in
  let code, _ = run lines in
  Alcotest.(check int) "clean trace exits 0" 0 code;
  let code, output = run duplicated in
  Alcotest.(check int) "duplicate exits 1" 1 code;
  let reports_duplicate =
    List.exists
      (fun l -> String.starts_with ~prefix:"violation: n0 delivered message n1/#0 of hwg g1.n0 twice" l)
      (String.split_on_char '\n' output)
  in
  Alcotest.(check bool) "names the duplicate delivery" true reports_duplicate

let suite =
  [
    Alcotest.test_case "clean trace passes" `Quick test_clean_trace_passes;
    Alcotest.test_case "detects self-exclusion" `Quick test_detects_self_exclusion;
    Alcotest.test_case "detects view disagreement" `Quick test_detects_view_disagreement;
    Alcotest.test_case "detects non-monotone installs" `Quick test_detects_non_monotone_installs;
    Alcotest.test_case "detects duplicate install" `Quick test_detects_duplicate_install;
    Alcotest.test_case "detects duplicate delivery" `Quick test_detects_duplicate_delivery;
    Alcotest.test_case "detects fifo violation" `Quick test_detects_fifo_violation;
    Alcotest.test_case "detects vs violation" `Quick test_detects_vs_violation;
    Alcotest.test_case "vs allows divergent successors" `Quick test_vs_allows_divergent_successors;
    Alcotest.test_case "detects total order violation" `Quick test_detects_total_order_violation;
    Alcotest.test_case "total order prefix ok" `Quick test_total_order_prefixes_ok;
    Alcotest.test_case "installs_of" `Quick test_installs_of;
    Alcotest.test_case "plwg check reports a duplicate delivery" `Quick test_check_cli_duplicate_delivery;
  ]
