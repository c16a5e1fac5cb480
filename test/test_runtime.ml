(* Runtime layer: unit tests for the OCaml 5 multi-domain backend, and
   the sim-as-oracle conformance property (one seeded scenario through
   both backends, equivalence modulo per-node commutativity). *)

open Plwg_sim
module Rt = Plwg_runtime.Rt
module Sim_rt = Plwg_runtime.Sim_rt
module Domains_rt = Plwg_runtime_domains.Domains_rt
module Conformance = Plwg_harness.Conformance
module Cluster = Plwg_harness.Cluster
module Trace_check = Plwg_harness.Trace_check
module Hwg = Plwg_vsync.Hwg

type Payload.t += Ping of int

(* ------------------------------------------------------------------ *)
(* Multi-domain backend primitives                                     *)
(* ------------------------------------------------------------------ *)

let test_send_delivers () =
  let b = Domains_rt.create ~model:Model.lossless ~n_domains:2 ~seed:5 ~n_nodes:2 () in
  let rt = Domains_rt.rt b in
  let got = ref [] and ran_on = ref [] in
  Rt.subscribe rt 1 (fun ~src payload ->
      ran_on := Domain.self () :: !ran_on;
      match payload with Ping i -> got := (src, i) :: !got | _ -> ());
  (* wiring-time sends from the main domain, one per destination domain *)
  Rt.send rt ~src:0 ~dst:1 (Ping 1);
  Rt.send rt ~src:1 ~dst:1 (Ping 2);
  let owner = ref None in
  Rt.at_node_ rt 1 (Time.ms 5) (fun () -> owner := Some (Domain.self ()));
  Domains_rt.run b ~until:(Time.ms 10);
  (* the self-send skips the link, so it delivers first; newest first *)
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 1); (1, 2) ] !got;
  Alcotest.(check bool) "both deliveries ran on the domain that owns n1" true
    (List.for_all (fun d -> Some d = !owner) !ran_on);
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

let test_rng_streams_per_backend () =
  let n_nodes = 3 in
  let draws rt node = List.init 4 (fun _ -> Plwg_util.Rng.int (Rt.rng_node rt node) 1_000_000) in
  (* the sim aliases one root stream in every node slot: node 1 picks up
     where node 0 stopped, and together they replay the seed's stream *)
  let sim = Sim_rt.rt (Sim_rt.create ~model:Model.lossless ~seed:77 ~n_nodes ()) in
  let root = Plwg_util.Rng.create ~seed:77 in
  let expect = List.init 8 (fun _ -> Plwg_util.Rng.int root 1_000_000) in
  Alcotest.(check bool) "sim: one stream object" true (Rt.rng_node sim 0 == Rt.rng_node sim 2);
  let first = draws sim 0 in
  Alcotest.(check (list int)) "sim: nodes 0 then 1 draw the root stream" expect (first @ draws sim 1);
  (* the domains backend gives node [n] the indexed stream [n], whatever
     the domain count *)
  let dom n_domains = Domains_rt.rt (Domains_rt.create ~model:Model.default ~n_domains ~seed:77 ~n_nodes ()) in
  let two = dom 2 and three = dom 3 in
  for node = 0 to n_nodes - 1 do
    let fresh = Plwg_util.Rng.stream ~seed:77 node in
    let expect = List.init 4 (fun _ -> Plwg_util.Rng.int fresh 1_000_000) in
    Alcotest.(check (list int)) (Printf.sprintf "domains: n%d on 2 domains draws stream %d" node node) expect
      (draws two node);
    Alcotest.(check (list int)) (Printf.sprintf "domains: n%d on 3 domains draws stream %d" node node) expect
      (draws three node)
  done;
  Alcotest.(check bool) "domains: nodes draw distinct streams" false (draws two 0 = draws two 1)

(* A backend that forwards every call to another, as the benchmark's
   tracing shim does: [Rt.tracing] must see through it. *)
module Forward : Rt.S with type t = Rt.t = struct
  type t = Rt.t

  let now = Rt.now
  let n_nodes = Rt.n_nodes
  let nodes = Rt.nodes
  let is_alive = Rt.is_alive
  let subscribe = Rt.subscribe
  let send = Rt.send
  let multicast = Rt.multicast
  let after_node = Rt.after_node
  let after_node_ = Rt.after_node_
  let at_node_ = Rt.at_node_
  let on_recover = Rt.on_recover
  let rng_node = Rt.rng_node
  let trace = Rt.trace
  let count = Rt.count
  let observe = Rt.observe
end

let test_tracing_probe () =
  let sim obs = Sim_rt.rt (Sim_rt.create ?obs ~model:Model.lossless ~seed:5 ~n_nodes:2 ()) in
  let dom obs = Domains_rt.rt (Domains_rt.create ?obs ~model:Model.lossless ~n_domains:2 ~seed:5 ~n_nodes:2 ()) in
  let forward rt = Rt.Rt ((module Forward), rt) in
  List.iter
    (fun (name, make) ->
      let obs = Plwg_obs.create () in
      let traced = make (Some obs) in
      Alcotest.(check bool) (name ^ ": with a sink") true (Rt.tracing traced);
      Alcotest.(check bool) (name ^ ": without a sink") false (Rt.tracing (make None));
      Alcotest.(check bool) (name ^ ": forwarded, with a sink") true (Rt.tracing (forward traced));
      Alcotest.(check bool) (name ^ ": forwarded, without a sink") false (Rt.tracing (forward (make None)));
      Alcotest.(check int) (name ^ ": the probe records nothing") 0
        (List.length (Trace_check.entries obs.Plwg_obs.sink)))
    [ ("sim", sim); ("domains", dom) ]

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
(* Faults on the domains backend, against the sim                      *)
(* ------------------------------------------------------------------ *)

(* One fault script, driven on either backend: faults apply between
   runs, which on the domains backend is a window boundary. *)
type driver = {
  rt : Rt.t;
  run : Time.t -> unit;
  apply : Fault.step -> unit;
  stats : unit -> Sim_rt.stats;
  in_flight : unit -> int;
  obs : Plwg_obs.t;
}

let sim_driver ~model ~seed ~n_nodes =
  let obs = Plwg_obs.create () in
  let e = Sim_rt.create ~obs ~model ~seed ~n_nodes () in
  {
    rt = Sim_rt.rt e;
    run = (fun until -> Sim_rt.run e ~until);
    apply = Fault.apply e;
    stats = (fun () -> Sim_rt.stats e);
    in_flight = (fun () -> Sim_rt.in_flight e);
    obs;
  }

let domains_driver ~n_domains ~model ~seed ~n_nodes =
  let obs = Plwg_obs.create () in
  let b = Domains_rt.create ~obs ~model ~n_domains ~seed ~n_nodes () in
  {
    rt = Domains_rt.rt b;
    run = (fun until -> Domains_rt.run b ~until);
    apply = Domains_rt.apply b;
    stats = (fun () -> Domains_rt.stats b);
    in_flight = (fun () -> Domains_rt.in_flight b);
    obs;
  }

let stats_t =
  Alcotest.testable
    (fun ppf (s : Sim_rt.stats) ->
      Format.fprintf ppf "{sent=%d; delivered=%d; wire_dropped=%d; unreachable_dropped=%d}" s.sent s.delivered
        s.wire_dropped s.unreachable_dropped)
    ( = )

(* Node 0 pings nodes 1-3 at 1, 2 and 3 ms.  The partition lands while
   the first burst is on the wire (cut on arrival at 2 and 3), the
   second burst meets it at send, and the third follows the heal. *)
let partition_script d =
  let log = Array.make 4 [] in
  for n = 0 to 3 do
    Rt.subscribe d.rt n (fun ~src payload -> match payload with Ping i -> log.(n) <- (src, i) :: log.(n) | _ -> ())
  done;
  List.iter
    (fun k ->
      Rt.at_node_ d.rt 0 (Time.ms k) (fun () ->
          for dst = 1 to 3 do
            Rt.send d.rt ~src:0 ~dst (Ping k)
          done))
    [ 1; 2; 3 ];
  d.run (Time.us 1100);
  d.apply (Fault.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
  d.run (Time.us 2500);
  d.apply Fault.Heal;
  d.run (Time.ms 4);
  (Array.map List.rev log, d.stats (), d.in_flight ())

let test_partition_heal n_domains () =
  let model = Model.lossless in
  let log, stats, in_flight = partition_script (domains_driver ~n_domains ~model ~seed:4 ~n_nodes:4) in
  Alcotest.(check (list (pair int int))) "same side: every burst" [ (0, 1); (0, 2); (0, 3) ] log.(1);
  Alcotest.(check (list (pair int int))) "across the cut: after the heal only" [ (0, 3) ] log.(2);
  Alcotest.(check (list (pair int int))) "across the cut, other node" [ (0, 3) ] log.(3);
  let expect = { Sim_rt.sent = 7; delivered = 5; wire_dropped = 0; unreachable_dropped = 4 } in
  Alcotest.check stats_t "2 cut on arrival, 2 dropped at send" expect stats;
  Alcotest.(check int) "drained" 0 in_flight;
  let _, sim_stats, sim_in_flight = partition_script (sim_driver ~model ~seed:4 ~n_nodes:4) in
  Alcotest.check stats_t "stats equal the sim's" sim_stats stats;
  Alcotest.(check int) "in_flight equals the sim's" sim_in_flight in_flight

(* Node 1 crashes at 1 ms, with a ping from node 0 on the wire and three
   kinds of timer pending; it recovers at 3 ms. *)
let crash_script d =
  let got = ref [] and fired = ref [] and hooks = ref [] and alive = ref [] in
  Rt.subscribe d.rt 1 (fun ~src:_ payload -> match payload with Ping i -> got := i :: !got | _ -> ());
  Rt.on_recover d.rt 1 (fun () -> hooks := "first" :: !hooks);
  Rt.on_recover d.rt 1 (fun () -> hooks := "second" :: !hooks);
  let (_ : Rt.cancel) = Rt.after_node d.rt 1 (Time.ms 2) (fun () -> fired := "after_node" :: !fired) in
  Rt.after_node_ d.rt 1 (Time.ms 2) (fun () -> fired := "after_node_" :: !fired);
  Rt.at_node_ d.rt 1 (Time.ms 2) (fun () -> fired := "at_node_" :: !fired);
  List.iter
    (fun (at, k) -> Rt.at_node_ d.rt 0 at (fun () -> Rt.send d.rt ~src:0 ~dst:1 (Ping k)))
    [ (Time.us 900, 1); (Time.ms 2, 2); (Time.ms 4, 3) ];
  d.run (Time.ms 1);
  d.apply (Fault.Crash 1);
  alive := Rt.is_alive d.rt 1 :: !alive;
  d.run (Time.ms 3);
  let hooks_while_down = !hooks in
  d.apply (Fault.Recover 1);
  alive := Rt.is_alive d.rt 1 :: !alive;
  d.run (Time.ms 5);
  (List.rev !got, List.rev !fired, hooks_while_down, List.rev !hooks, List.rev !alive, d.stats (), d.in_flight ())

let test_crash_recover n_domains () =
  let model = Model.lossless in
  let got, fired, hooks_down, hooks, alive, stats, in_flight =
    crash_script (domains_driver ~n_domains ~model ~seed:4 ~n_nodes:4)
  in
  Alcotest.(check (list bool)) "is_alive: down, then up" [ false; true ] alive;
  Alcotest.(check (list int)) "only the post-recovery ping is delivered" [ 3 ] got;
  Alcotest.(check (list string)) "guarded timers skipped, the unguarded one fires" [ "at_node_" ] fired;
  Alcotest.(check (list string)) "no hook while down" [] hooks_down;
  Alcotest.(check (list string)) "hooks in registration order" [ "first"; "second" ] hooks;
  let _, _, _, _, _, sim_stats, sim_in_flight = crash_script (sim_driver ~model ~seed:4 ~n_nodes:4) in
  Alcotest.check stats_t "stats equal the sim's" sim_stats stats;
  Alcotest.(check int) "in_flight equals the sim's" sim_in_flight in_flight

(* Node 1 runs an [Rt.every] loop and crashes from 1.5 to 3.5 ms; node
   2 runs one whose stop condition turns false at 3.2 ms and true again
   at 5.2 ms.  Node timers: one on node 1 due while it is down, one due
   after it is back, and one on node 2 cancelled before it is due. *)
let every_script d =
  let ticks = Array.make 3 [] and fired = ref [] and go = ref true in
  let tick node () = ticks.(node) <- Rt.now d.rt :: ticks.(node) in
  Rt.every d.rt 1 ~first:(Time.ms 1) ~period:(Time.ms 1) (tick 1);
  Rt.every ~while_:(fun () -> !go) d.rt 2 ~first:(Time.ms 1) ~period:(Time.ms 1) (tick 2);
  Rt.at_node_ d.rt 2 (Time.us 3200) (fun () -> go := false);
  Rt.at_node_ d.rt 2 (Time.us 5200) (fun () -> go := true);
  let timer node at label = Rt.after_node d.rt node at (fun () -> fired := label :: !fired) in
  let (_ : Rt.cancel) = timer 1 (Time.us 2500) "due while down" in
  let (_ : Rt.cancel) = timer 1 (Time.us 5500) "due after recover" in
  let cancel = timer 2 (Time.us 3500) "cancelled" in
  Rt.at_node_ d.rt 2 (Time.ms 3) cancel;
  d.run (Time.us 1500);
  d.apply (Fault.Crash 1);
  d.run (Time.us 3500);
  d.apply (Fault.Recover 1);
  d.run (Time.us 6500);
  (List.rev ticks.(1), List.rev ticks.(2), !fired)

let test_every run () =
  let up, stopped, fired = every_script (run ~model:Model.lossless ~seed:3 ~n_nodes:3) in
  Alcotest.(check (list int)) "body skipped while crashed, resumed after recover" (List.map Time.ms [ 1; 4; 5; 6 ]) up;
  Alcotest.(check (list int)) "no firing once the stop condition is false" (List.map Time.ms [ 1; 2; 3 ]) stopped;
  Alcotest.(check (list string)) "node timers: skipped while down, cancelled never" [ "due after recover" ] fired

(* A Cluster.wire HWG group of four, split 2/2 and healed. *)
let hwg_partition_heal d =
  let parts = Cluster.wire d.rt in
  let group = { Plwg_vsync.Types.Gid.seq = 1; origin = 0 } in
  let members node =
    match Hwg.view_of parts.Cluster.p_hwgs.(node) group with Some v -> v.Plwg_vsync.Types.View.members | None -> []
  in
  Array.iter (fun hwg -> Hwg.join hwg group) parts.Cluster.p_hwgs;
  d.run (Time.sec 4);
  d.apply (Fault.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
  d.run (Time.sec 8);
  let split = (members 0, members 2) in
  d.apply Fault.Heal;
  d.run (Time.sec 13);
  (split, List.init 4 members, Trace_check.check_sink Trace_check.check_vs d.obs.Plwg_obs.sink, d.stats ())

let test_hwg_partition_heal n_domains () =
  let model = Model.default in
  let split, merged, violations, _ = hwg_partition_heal (domains_driver ~n_domains ~model ~seed:6 ~n_nodes:4) in
  Alcotest.(check (pair (list int) (list int))) "two views while split" ([ 0; 1 ], [ 2; 3 ]) split;
  Alcotest.(check (list (list int))) "one merged view" (List.init 4 (fun _ -> [ 0; 1; 2; 3 ])) merged;
  Alcotest.(check (list string)) "virtual synchrony holds" [] violations;
  let _, sim_merged, _, _ = hwg_partition_heal (sim_driver ~model ~seed:6 ~n_nodes:4) in
  Alcotest.(check (list (list int))) "merged view equals the sim's" sim_merged merged

let test_faulted_runs_repeat n_domains () =
  let run () = hwg_partition_heal (domains_driver ~n_domains ~model:Model.default ~seed:6 ~n_nodes:4) in
  let _, _, _, a = run () and _, _, _, b = run () in
  Alcotest.check stats_t "same seed, same stats" a b

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
    Alcotest.test_case "rng: sim aliases, domains n-independent" `Quick test_rng_streams_per_backend;
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
    Alcotest.test_case "partition and heal, 2 domains" `Quick (test_partition_heal 2);
    Alcotest.test_case "partition and heal, 3 domains" `Quick (test_partition_heal 3);
    Alcotest.test_case "crash and recover, 2 domains" `Quick (test_crash_recover 2);
    Alcotest.test_case "crash and recover, 3 domains" `Quick (test_crash_recover 3);
    Alcotest.test_case "HWG partition/heal as on sim, 2 domains" `Quick (test_hwg_partition_heal 2);
    Alcotest.test_case "HWG partition/heal as on sim, 3 domains" `Quick (test_hwg_partition_heal 3);
    Alcotest.test_case "faulted runs repeat, 2 domains" `Quick (test_faulted_runs_repeat 2);
    Alcotest.test_case "faulted runs repeat, 3 domains" `Quick (test_faulted_runs_repeat 3);
    Alcotest.test_case "tracing probe: sink, no sink, forwarded" `Quick test_tracing_probe;
    Alcotest.test_case "every and node timers across a crash, sim" `Quick (test_every sim_driver);
    Alcotest.test_case "every and node timers across a crash, 2 domains" `Quick
      (test_every (domains_driver ~n_domains:2));
  ]
