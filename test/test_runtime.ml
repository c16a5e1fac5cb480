(* Runtime layer: unit tests for the OCaml 5 multi-domain backend, and
   the sim-as-oracle conformance property (one seeded scenario through
   both backends, equivalence modulo per-node commutativity). *)

open Plwg_sim
module Rt = Plwg_runtime.Rt
module Domains_rt = Plwg_runtime_domains.Domains_rt
module Conformance = Plwg_harness.Conformance

type Payload.t += Ping of int

(* ------------------------------------------------------------------ *)
(* Multi-domain backend primitives                                     *)
(* ------------------------------------------------------------------ *)

let test_send_delivers () =
  let b = Domains_rt.create ~model:Model.lossless ~n_domains:2 ~seed:5 ~n_nodes:2 () in
  let rt = Domains_rt.rt b in
  let got = ref [] in
  Rt.subscribe rt 1 (fun ~src payload -> match payload with Ping i -> got := (src, i) :: !got | _ -> ());
  (* wiring-time sends from the main domain, one per destination domain *)
  Rt.send rt ~src:0 ~dst:1 (Ping 1);
  Rt.send rt ~src:1 ~dst:1 (Ping 2);
  Domains_rt.run b ~until:(Time.ms 10);
  (* the self-send skips the link, so it delivers first; newest first *)
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 1); (1, 2) ] !got;
  Alcotest.(check int) "stats.delivered" 2 (Domains_rt.stats b).Domains_rt.delivered;
  Alcotest.(check int) "drained" 0 (Domains_rt.in_flight b)

let test_cross_domain_send_mid_run () =
  (* node 0 (domain 0) pings node 1 (domain 1) from inside a timer;
     node 1 echoes from inside its receive handler *)
  let b = Domains_rt.create ~model:Model.lossless ~n_domains:2 ~seed:5 ~n_nodes:2 () in
  let rt = Domains_rt.rt b in
  let echoed = ref None in
  Rt.subscribe rt 1 (fun ~src payload ->
      match payload with Ping i -> Rt.send rt ~src:1 ~dst:src (Ping (i + 1)) | _ -> ());
  Rt.subscribe rt 0 (fun ~src:_ payload ->
      match payload with Ping i -> echoed := Some (i, Rt.now rt) | _ -> ());
  Rt.at_node_ rt 0 (Time.ms 1) (fun () -> Rt.send rt ~src:0 ~dst:1 (Ping 10));
  Domains_rt.run b ~until:(Time.ms 10);
  match !echoed with
  | None -> Alcotest.fail "echo never came back"
  | Some (i, at) ->
      Alcotest.(check int) "echo payload" 11 i;
      (* 1ms timer + two lossless link hops + two cpu dispatches *)
      let expect =
        Time.add (Time.ms 1)
          (Time.add
             (2 * Model.lossless.Model.link_base)
             (2 * Model.lossless.Model.proc_time))
      in
      Alcotest.(check int) "echo arrival time" expect at

let test_timers_and_clock () =
  let n_nodes = 4 in
  let b = Domains_rt.create ~model:Model.default ~n_domains:3 ~seed:9 ~n_nodes () in
  let rt = Domains_rt.rt b in
  let ticks = Array.make n_nodes 0 in
  for node = 0 to n_nodes - 1 do
    let rec loop () =
      ticks.(node) <- ticks.(node) + 1;
      Rt.at_node_ rt node (Time.ms 1) loop
    in
    Rt.at_node_ rt node (Time.ms 1) loop
  done;
  Domains_rt.run b ~until:(Time.ms 10);
  Array.iteri (fun node n -> Alcotest.(check int) (Printf.sprintf "ticks at n%d" node) 10 n) ticks;
  Alcotest.(check int) "main-domain clock after run" (Time.ms 10) (Domains_rt.now b);
  (* a second run resumes where the first stopped *)
  Domains_rt.run_span b (Time.ms 5);
  Array.iteri (fun node n -> Alcotest.(check int) (Printf.sprintf "resumed ticks at n%d" node) 15 n) ticks

let test_cancel () =
  let b = Domains_rt.create ~model:Model.default ~n_domains:2 ~seed:9 ~n_nodes:2 () in
  let rt = Domains_rt.rt b in
  let fired = ref false in
  let cancel = Rt.after_node rt 1 (Time.ms 2) (fun () -> fired := true) in
  Rt.at_node_ rt 1 (Time.ms 1) (fun () -> cancel ());
  Domains_rt.run b ~until:(Time.ms 10);
  Alcotest.(check bool) "cancelled timer never fired" false !fired

let test_rng_streams_match_backends () =
  (* the same node draws the same stream on both backends *)
  let sim = Plwg_runtime.Sim_rt.create ~model:Model.lossless ~seed:77 ~n_nodes:3 () in
  let dom = Domains_rt.create ~model:Model.default ~n_domains:2 ~seed:77 ~n_nodes:3 () in
  let draws rt node = List.init 4 (fun _ -> Plwg_util.Rng.int (Rt.rng_node rt node) 1_000_000) in
  (* the sim aliases every node stream to its root schedule stream; the
     domains backend gives node [n] the indexed stream [n].  What must
     hold on both: a node's future draws are a function of its own past
     draw count only, so two fresh same-seed backends agree per node. *)
  let dom' = Domains_rt.create ~model:Model.default ~n_domains:3 ~seed:77 ~n_nodes:3 () in
  List.iter
    (fun node ->
      Alcotest.(check (list int))
        (Printf.sprintf "domains n%d draws are domain-count independent" node)
        (draws (Domains_rt.rt dom) node)
        (draws (Domains_rt.rt dom') node))
    [ 0; 1; 2 ];
  ignore (draws (Plwg_runtime.Sim_rt.rt sim) 0)

exception Boom of int

let test_raise_releases_peers ~n_domains ~node () =
  (* every node ticks every 100us, so each domain has windows to run;
     [node] raises at 1ms.  [run] must return by re-raising, with the
     peers released from the barrier rather than waiting for a party
     that left. *)
  let n_nodes = 4 in
  let b = Domains_rt.create ~model:Model.default ~n_domains ~seed:3 ~n_nodes () in
  let rt = Domains_rt.rt b in
  for n = 0 to n_nodes - 1 do
    let rec tick () = Rt.at_node_ rt n (Time.us 100) tick in
    tick ()
  done;
  Rt.at_node_ rt node (Time.ms 1) (fun () -> raise (Boom node));
  Alcotest.check_raises "run re-raises the handler's exception" (Boom node) (fun () ->
      Domains_rt.run b ~until:(Time.ms 10))

(* Every node pings every other node each millisecond, at a per-node
   offset 50us apart, so no two messages reach a node within one
   [proc_time] of each other and each message's delivery time is fixed
   by the model alone.  The main domain adds a batch at 0 and another
   between runs at [mid].  [advance] drives the backend to a target. *)
let delivery_log ~n_domains ~advance =
  let n_nodes = 5 and mid = Time.us 999 and stop = Time.us 9990 in
  let b = Domains_rt.create ~model:Model.lossless ~n_domains ~seed:11 ~n_nodes () in
  let rt = Domains_rt.rt b in
  let log = Array.make n_nodes [] in
  for n = 0 to n_nodes - 1 do
    Rt.subscribe rt n (fun ~src payload ->
        match payload with Ping i -> log.(n) <- (src, i, Rt.now rt) :: log.(n) | _ -> ());
    let round = ref 0 in
    let rec tick () =
      incr round;
      for dst = 0 to n_nodes - 1 do
        if dst <> n then Rt.send rt ~src:n ~dst (Ping ((1000 * !round) + n))
      done;
      Rt.at_node_ rt n (Time.ms 1) tick
    in
    Rt.at_node_ rt n (Time.us (300 + (50 * n))) tick
  done;
  let main_batch tag =
    for src = 0 to n_nodes - 1 do
      Rt.send rt ~src ~dst:((src + 1) mod n_nodes) (Ping (tag + src))
    done
  in
  main_batch 1_000_000;
  advance b mid;
  main_batch 2_000_000;
  advance b stop;
  (b, Array.map List.rev log)

let test_split_runs n_domains () =
  let one_run b until = Domains_rt.run b ~until in
  let split b until =
    while Time.compare (Domains_rt.now b) until < 0 do
      Domains_rt.run_span b (Time.us 37)
    done;
    Alcotest.(check int) "split runs land on the target" until (Domains_rt.now b)
  in
  let b, whole = delivery_log ~n_domains ~advance:one_run in
  let b', parts = delivery_log ~n_domains ~advance:split in
  let sent = (Domains_rt.stats b).Domains_rt.sent in
  Alcotest.(check int) "same sends" sent (Domains_rt.stats b').Domains_rt.sent;
  let delivered = Array.fold_left (fun acc l -> acc + List.length l) 0 parts in
  Alcotest.(check int) "each message delivered once" (sent - Domains_rt.in_flight b') delivered;
  let keyed = List.concat (Array.to_list (Array.mapi (fun n l -> List.map (fun (src, i, _) -> (n, src, i)) l) parts)) in
  Alcotest.(check int) "no duplicates" delivered (List.length (List.sort_uniq compare keyed));
  Array.iteri
    (fun n l ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "n%d deliveries and times" n) l parts.(n))
    whole

let test_equal_arrival_order () =
  (* on 3 domains, nodes 1, 2, 4, 5 (domains 1, 2, 1, 2) each send
     three pings to node 0 (domain 0) at the same instant: they arrive
     at one tick and must be served in (src, per-source seq) order *)
  let b = Domains_rt.create ~model:Model.lossless ~n_domains:3 ~seed:2 ~n_nodes:6 () in
  let rt = Domains_rt.rt b in
  let got = ref [] in
  Rt.subscribe rt 0 (fun ~src payload -> match payload with Ping i -> got := (src, i) :: !got | _ -> ());
  let srcs = [ 5; 2; 4; 1 ] in
  List.iter
    (fun src ->
      Rt.at_node_ rt src (Time.ms 1) (fun () ->
          for k = 0 to 2 do
            Rt.send rt ~src ~dst:0 (Ping k)
          done))
    srcs;
  Domains_rt.run b ~until:(Time.ms 3);
  let expect = List.concat_map (fun src -> List.init 3 (fun k -> (src, k))) (List.sort Int.compare srcs) in
  Alcotest.(check (list (pair int int))) "served in (src, seq) order" expect (List.rev !got)

(* ------------------------------------------------------------------ *)
(* Conformance: the sim as oracle                                      *)
(* ------------------------------------------------------------------ *)

let test_conformance seed () =
  match Conformance.check ~seed ~n_domains:2 with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "\n" errs)

let test_diff_detects_divergence () =
  let o = Conformance.run_sim ~seed:3 in
  match o.Conformance.channels with
  | [] -> Alcotest.fail "scenario produced no channels"
  | c :: rest -> (
      let mutilated =
        { o with Conformance.channels = { c with Conformance.seqs = List.tl c.Conformance.seqs } :: rest }
      in
      (match Conformance.diff ~oracle:o ~candidate:mutilated with
      | [] -> Alcotest.fail "diff missed a dropped delivery"
      | _ -> ());
      match Conformance.diff ~oracle:o ~candidate:o with
      | [] -> ()
      | errs -> Alcotest.fail ("diff of an outcome against itself: " ^ String.concat "; " errs))

let suite =
  [
    Alcotest.test_case "cross-domain send delivers" `Quick test_send_delivers;
    Alcotest.test_case "mid-run echo across domains" `Quick test_cross_domain_send_mid_run;
    Alcotest.test_case "node timers tick and the clock resumes" `Quick test_timers_and_clock;
    Alcotest.test_case "after_node cancel" `Quick test_cancel;
    Alcotest.test_case "per-node rng streams are backend-stable" `Quick test_rng_streams_match_backends;
    Alcotest.test_case "diff detects divergence" `Quick test_diff_detects_divergence;
    Alcotest.test_case "conformance: seed 1, 2 domains" `Slow (test_conformance 1);
    Alcotest.test_case "conformance: seed 13, 2 domains" `Slow (test_conformance 13);
    Alcotest.test_case "raise on domain 0 of 2 ends the run" `Quick (test_raise_releases_peers ~n_domains:2 ~node:0);
    Alcotest.test_case "raise on domain 1 of 2 ends the run" `Quick (test_raise_releases_peers ~n_domains:2 ~node:1);
    Alcotest.test_case "raise on domain 0 of 3 ends the run" `Quick (test_raise_releases_peers ~n_domains:3 ~node:3);
    Alcotest.test_case "raise on domain 2 of 3 ends the run" `Quick (test_raise_releases_peers ~n_domains:3 ~node:2);
    Alcotest.test_case "runs split below the window, 2 domains" `Quick (test_split_runs 2);
    Alcotest.test_case "runs split below the window, 3 domains" `Quick (test_split_runs 3);
    Alcotest.test_case "equal-arrival fold order" `Quick test_equal_arrival_order;
  ]
