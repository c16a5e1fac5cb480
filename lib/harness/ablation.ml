open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Service = Plwg.Service
module Policy = Plwg.Policy
module Db = Plwg_naming.Db
module Server = Plwg_naming.Server
module Hwg = Plwg_vsync.Hwg

let lwg seq = { Gid.seq = 1_000_000 + seq; origin = 0 }

(* Mixed-membership workload on 8 nodes: one group per "width", all
   created at node 0, so everything starts on one shared HWG and the
   rules must decide what to tear apart. *)
let mixed_groups = [ (lwg 1, 8); (lwg 2, 8); (lwg 3, 4); (lwg 4, 4); (lwg 5, 2); (lwg 6, 1) ]

let run_mixed ~params ~policy_period ~seed =
  let config = { Service.params; policy_period } in
  let stack = Stack.create ~config ~mode:Stack.Dynamic ~seed ~n_app:8 () in
  List.iteri
    (fun i (g, width) ->
      List.iteri
        (fun j node ->
          let delay = Time.ms ((300 * i) + (50 * j)) in
          let (_ : Sim_rt.cancel) =
            Sim_rt.after stack.Stack.engine delay (fun () -> Service.join stack.Stack.services.(node) g)
          in
          ())
        (List.init width (fun n -> n)))
    mixed_groups;
  let switches () = Array.fold_left (fun acc s -> acc + Service.switch_count s) 0 stack.Stack.services in
  (* watch until the mapping stops changing *)
  let last_change = ref Time.zero and last_count = ref 0 in
  let horizon = Time.sec 60 in
  while Time.compare (Sim_rt.now stack.Stack.engine) horizon < 0 do
    Stack.run stack (Time.ms 500);
    let count = switches () in
    if count <> !last_count then begin
      last_count := count;
      last_change := Sim_rt.now stack.Stack.engine
    end
  done;
  let carriers =
    List.sort_uniq Gid.compare
      (List.concat_map
         (fun (g, width) ->
           List.filter_map
             (fun node -> Service.mapping_of stack.Stack.services.(node) g)
             (List.init width (fun n -> n)))
         mixed_groups)
  in
  (switches (), List.length carriers, Time.to_float_sec !last_change)

let policy_sweep ?(seed = 11) () =
  let points sweep make_params =
    List.map
      (fun k ->
        let switches, carriers, _ = run_mixed ~params:(make_params k) ~policy_period:(Time.sec 2) ~seed in
        (k, switches, carriers))
      sweep
  in
  let print header rows =
    Printf.printf "\n# %s\n%-8s%12s%12s\n" header "k" "switches" "hwgs";
    List.iter (fun (k, s, c) -> Printf.printf "%-8d%12d%12d\n" k s c) rows
  in
  print "Ablation: k_m sweep (k_c = 4) on the mixed workload"
    (points [ 2; 3; 4; 6; 8 ] (fun k -> { Policy.k_m = k; k_c = 4 }));
  print "Ablation: k_c sweep (k_m = 4) on the mixed workload"
    (points [ 2; 3; 4; 6; 8 ] (fun k -> { Policy.k_m = 4; k_c = k }))

let heuristic_period ?(seed = 12) () =
  Printf.printf "\n# Ablation: policy evaluation period vs convergence (mixed workload)\n";
  Printf.printf "%-12s%12s%16s\n" "period_s" "switches" "stable_at_s";
  List.iter
    (fun period_s ->
      let switches, _, stable_at =
        run_mixed ~params:Policy.default_params ~policy_period:(Time.sec period_s) ~seed
      in
      Printf.printf "%-12d%12d%16.1f\n" period_s switches stable_at)
    [ 1; 2; 4; 8; 16 ]

let anti_entropy ?(seed = 13) () =
  Printf.printf "\n# Ablation: naming-service anti-entropy period vs reconciliation latency (mean of 5 runs)\n";
  Printf.printf "%-12s%16s%16s\n" "gossip_ms" "detect_ms" "converge_ms";
  let one_run ~gossip_ms ~seed =
    let ns_config = { Server.gossip_period = Time.ms gossip_ms } in
    let stack = Stack.create ~ns_config ~mode:Stack.Dynamic ~seed ~n_app:4 () in
    let group = lwg 1 in
    Array.iter (fun service -> Service.join service group) stack.Stack.services;
    Stack.run stack (Time.sec 10);
    let s0 = List.nth stack.Stack.server_nodes 0 and s1 = List.nth stack.Stack.server_nodes 1 in
    Sim_rt.set_partition stack.Stack.engine [ [ 0; 1; s0 ]; [ 2; 3; s1 ] ];
    Stack.run stack (Time.sec 6);
    let target = Hwg.fresh_gid (Service.hwg_service stack.Stack.services.(2)) in
    Service.request_switch stack.Stack.services.(2) group target;
    Stack.run stack (Time.sec 8);
    (* de-align the heal from the gossip timers (whole-second phases
       would otherwise coincide with every gossip period) *)
    Stack.run stack (Time.ms (137 + (229 * seed mod 1499)));
    Sim_rt.heal stack.Stack.engine;
    let heal_time = Sim_rt.now stack.Stack.engine in
    let since () = Time.to_float_ms (Time.diff (Sim_rt.now stack.Stack.engine) heal_time) in
    let detect = ref nan and converge = ref nan in
    (* observe from inside the simulation: the conflict window between
       database merge and completed switches lasts only milliseconds *)
    let rec observe () =
      if Float.is_nan !converge then begin
        if
          Float.is_nan !detect
          && List.exists (fun server -> Db.conflicting (Server.db server) group) stack.Stack.ns_servers
        then detect := since ();
        if
          Stack.lwg_converged stack group
          && Array.for_all
               (fun s -> Option.equal Gid.equal (Service.mapping_of s group) (Some target))
               stack.Stack.services
          && List.for_all
               (fun server -> List.length (Db.read (Server.db server) group) = 1)
               stack.Stack.ns_servers
        then converge := since ()
        else
          let (_ : Sim_rt.cancel) = Sim_rt.after stack.Stack.engine (Time.ms 1) observe in
          ()
      end
    in
    observe ();
    Stack.run stack (Time.sec 30);
    (!detect, !converge)
  in
  List.iter
    (fun gossip_ms ->
      let runs = List.map (fun i -> one_run ~gossip_ms ~seed:(seed + (17 * i))) [ 0; 1; 2; 3; 4 ] in
      let mean pick =
        let vals = List.filter (fun v -> not (Float.is_nan v)) (List.map pick runs) in
        Metrics.mean vals
      in
      Printf.printf "%-12d%16.0f%16.0f\n" gossip_ms (mean fst) (mean snd))
    [ 100; 200; 400; 800; 1600 ]

let merge_cost ?(seed = 14) () =
  Printf.printf "\n# Ablation: merge-views protocol cost vs number of LWGs sharing the HWG\n";
  Printf.printf "%-8s%16s%18s%16s\n" "m" "hwg_flushes" "per_lwg_flushes" "merge_ms";
  List.iter
    (fun m ->
      let stack = Stack.create ~mode:Stack.Dynamic ~seed ~n_app:4 () in
      let groups = List.init m (fun i -> lwg (i + 1)) in
      List.iteri
        (fun i g ->
          Array.iteri
            (fun node service ->
              let (_ : Sim_rt.cancel) =
                Sim_rt.after stack.Stack.engine
                  (Time.ms ((200 * i) + (40 * node)))
                  (fun () -> Service.join service g)
              in
              ())
            stack.Stack.services)
        groups;
      Stack.run stack (Time.sec (10 + (m / 2)));
      let s0 = List.nth stack.Stack.server_nodes 0 and s1 = List.nth stack.Stack.server_nodes 1 in
      Sim_rt.set_partition stack.Stack.engine [ [ 0; 1; s0 ]; [ 2; 3; s1 ] ];
      Stack.run stack (Time.sec 6);
      Sim_rt.heal stack.Stack.engine;
      let heal_time = Sim_rt.now stack.Stack.engine in
      let steps = ref 0 in
      while (not (List.for_all (Stack.lwg_converged stack) groups)) && !steps < 400 do
        Stack.run stack (Time.ms 100);
        incr steps
      done;
      let merge_ms = Time.to_float_ms (Time.diff (Sim_rt.now stack.Stack.engine) heal_time) in
      (* HWG view installs at node 0 after the heal = flushes this node
         went through to merge everything *)
      let flushes =
        List.length
          (List.filter
             (fun { Plwg_obs.Event.at_us; event } ->
               match event with
               | Plwg_obs.Event.View_installed { layer = Hwg; node = 0; _ } -> Time.compare at_us heal_time > 0
               | _ -> false)
             (Trace_check.entries stack.Stack.obs.Plwg_obs.sink))
      in
      (* a per-LWG merge design would pay one flush per group instead *)
      let hypothetical = flushes - 1 + m in
      Printf.printf "%-8d%16d%18d%16.0f\n" m flushes hypothetical merge_ms)
    [ 1; 2; 4; 8 ]
