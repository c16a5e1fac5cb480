(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (plus the ablations DESIGN.md calls out), then runs
   Bechamel micro-benchmarks on the hot paths of the implementation.

   - Figure 2 (three panels): Plwg_harness.Figure2
   - Figure 3 / Table 3 and Figure 4 / Table 4: Plwg_harness.Scenario
   - Figure 5 cost: Plwg_harness.Ablation.merge_cost
   - Tables 1/2 are interfaces; they are exercised by the test suite.

   Absolute numbers come from the simulator's cost model and are not
   expected to match the paper's 1999 testbed; see EXPERIMENTS.md. *)

open Bechamel
open Toolkit

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  flush stdout

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

module Micro = struct
  open Plwg_vsync.Types
  module Db = Plwg_naming.Db
  module Policy = Plwg.Policy

  let gid seq = { Gid.seq; origin = 0 }
  let vid coord seq = { View_id.coord; seq }

  let entry i =
    {
      Db.lwg = gid (i mod 16);
      lwg_view = vid (i mod 8) (i / 8);
      members = [ 0; 1; 2; 3 ];
      hwg = gid (100 + (i mod 4));
      hwg_view = None;
      preds = (if i >= 8 then [ vid (i mod 8) ((i / 8) - 1) ] else []);
    }

  let rng_draws =
    Test.make ~name:"rng draw x1000"
      (Staged.stage (fun () ->
           let rng = Plwg_util.Rng.create ~seed:1 in
           for _ = 1 to 1000 do
             ignore (Plwg_util.Rng.int rng 1024)
           done))

  let db_set =
    Test.make ~name:"naming db set x64"
      (Staged.stage (fun () ->
           let db = Db.create () in
           for i = 0 to 63 do
             Db.set db (entry i)
           done))

  let db_merge =
    let a = Db.create () and b = Db.create () in
    for i = 0 to 63 do
      Db.set a (entry i);
      Db.set b (entry (i + 32))
    done;
    Test.make ~name:"naming db merge (64+64 entries)"
      (Staged.stage (fun () ->
           let target = Db.create () in
           ignore (Db.merge target a);
           ignore (Db.merge target b)))

  (* A gossip receipt with no news: the peer holds what we hold, 256
     LWGs with one live entry each at the end of 8 retired views. *)
  let db_merge_repeat =
    let replica () =
      let db = Db.create () in
      for lwg = 0 to 255 do
        for s = 1 to 9 do
          Db.set db
            {
              Db.lwg = gid lwg;
              lwg_view = vid 0 s;
              members = [ 0; 1; 2; 3 ];
              hwg = gid 1000;
              hwg_view = None;
              preds = (if s > 1 then [ vid 0 (s - 1) ] else []);
            }
        done
      done;
      db
    in
    let ours = replica () and theirs = replica () in
    Test.make ~name:"naming db merge (repeat, 256 LWGs)" (Staged.stage (fun () -> ignore (Db.merge ours theirs)))

  let members n = Plwg_sim.Node_id.set_of_list (List.init n (fun i -> i))

  let policy_rules =
    let params = Policy.default_params in
    let hwgs = List.init 8 (fun i -> (gid i, members (2 + (i mod 7)))) in
    Test.make ~name:"policy: share+interference over 8 hwgs"
      (Staged.stage (fun () ->
           List.iter
             (fun (g1, m1) ->
               List.iter (fun (g2, m2) -> ignore (Policy.share_decision params (g1, m1) (g2, m2))) hwgs;
               ignore (Policy.interference_decision params ~lwg_members:(members 2) ~hwg:(g1, m1) ~candidates:hwgs))
             hwgs))

  let simulation_slice =
    Test.make ~name:"simulate 1s: 4 nodes, detector + hwg"
      (Staged.stage (fun () ->
           let cluster = Plwg_harness.Cluster.create ~seed:5 ~n_nodes:4 () in
           let group = { Gid.seq = 1; origin = 0 } in
           Array.iter (fun hwg -> Plwg_vsync.Hwg.join hwg group) cluster.Plwg_harness.Cluster.hwgs;
           Plwg_harness.Cluster.run cluster (Plwg_sim.Time.sec 1)))

  let all = [ rng_draws; db_set; db_merge; db_merge_repeat; policy_rules; simulation_slice ]

  let run ?(quick = false) () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
    let instances = Instance.[ monotonic_clock ] in
    let quota = if quick then Time.second 0.1 else Time.second 0.5 in
    let cfg = Benchmark.cfg ~limit:2000 ~quota ~stabilize:true () in
    Printf.printf "%-44s%16s\n" "benchmark" "time/run";
    List.iter
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analysis = Analyze.all ols Instance.monotonic_clock results in
        Plwg_util.Tbl.iter_sorted ~cmp:String.compare
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ estimate ] ->
                let pretty =
                  if estimate > 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
                  else if estimate > 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
                  else Printf.sprintf "%.0f ns" estimate
                in
                Printf.printf "%-44s%16s\n" name pretty
            | Some _ | None -> Printf.printf "%-44s%16s\n" name "n/a")
          analysis;
        flush stdout)
      all
end

(* ------------------------------------------------------------------ *)
(* Per-phase traffic breakdown of the reconciliation scenario          *)
(* ------------------------------------------------------------------ *)

(* Runs the Figure 3/4 scenario with the trace sink attached and breaks
   the delivered messages down by protocol (the leading identifier of
   the payload rendering) and by phase (before vs after the heal).  The
   split shows what the reconciliation itself costs on the wire. *)
let message_breakdown () =
  let obs = Plwg_obs.create () in
  ignore (Plwg_harness.Scenario.run ~obs ());
  let entries = Plwg_obs.Sink.to_list obs.Plwg_obs.sink in
  let heal_at =
    List.fold_left
      (fun acc { Plwg_obs.Event.at_us; event } ->
        match event with Plwg_obs.Event.Healed -> at_us | _ -> acc)
      max_int entries
  in
  let tally = Hashtbl.create 16 in
  List.iter
    (fun { Plwg_obs.Event.at_us; event } ->
      match event with
      | Plwg_obs.Event.Msg_delivered { kind; latency_us; _ } ->
          let proto = Plwg_obs.Event.kind_prefix kind in
          let key = (proto, at_us >= heal_at) in
          let count, latencies =
            match Hashtbl.find_opt tally key with Some existing -> existing | None -> (0, [])
          in
          Hashtbl.replace tally key (count + 1, float_of_int latency_us :: latencies)
      | _ -> ())
    entries;
  Printf.printf "%-28s%10s%12s%12s\n" "protocol / phase" "msgs" "p50 us" "p95 us";
  Plwg_util.Tbl.bindings_sorted
    ~cmp:(fun (pa, ha) (pb, hb) ->
      let c = String.compare pa pb in
      if c <> 0 then c else Bool.compare ha hb)
    tally
  |> List.iter (fun ((proto, healed), (count, latencies)) ->
         Printf.printf "%-28s%10d%12.0f%12.0f\n"
           (Printf.sprintf "%s (%s)" proto (if healed then "post-heal" else "pre-heal"))
           count
           (Plwg_obs.Metrics.percentile 0.50 latencies)
           (Plwg_obs.Metrics.percentile 0.95 latencies));
  flush stdout

let () =
  (* --quick: cut the figure-2 sweep and the slow ablations so a bench
     build can be sanity-checked in seconds (CI smoke; see bench/dune). *)
  let quick = Array.exists (fun arg -> arg = "--quick") Sys.argv in
  section "Figure 2: latency / throughput / recovery (no-lwg vs static vs dynamic)";
  Plwg_harness.Figure2.print_all ?ns:(if quick then Some [ 1; 2 ] else None) ();
  section "Figures 3-4, Tables 3-4: partition criss-cross and reconciliation";
  Plwg_harness.Scenario.print (Plwg_harness.Scenario.run ());
  section "Reconciliation traffic: per-protocol message breakdown (trace-derived)";
  message_breakdown ();
  if not quick then begin
    section "Figure 5 cost: merge-views (one flush for all LWGs of a HWG)";
    Plwg_harness.Ablation.merge_cost ();
    section "Ablation: policy parameters (Figure 1 rules)";
    Plwg_harness.Ablation.policy_sweep ();
    section "Ablation: heuristic evaluation period";
    Plwg_harness.Ablation.heuristic_period ();
    section "Ablation: naming-service anti-entropy period";
    Plwg_harness.Ablation.anti_entropy ()
  end;
  section "Micro-benchmarks (Bechamel)";
  Micro.run ~quick ()
