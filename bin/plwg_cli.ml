(* Command-line driver for the partitionable light-weight group
   reproduction: runs the paper's experiments and ad-hoc simulations.

     dune exec bin/plwg_cli.exe -- <command> [options]
*)

open Cmdliner
module Sim_rt = Plwg_runtime.Sim_rt

(* ---------------- shared observability flags ---------------- *)

let trace_arg =
  let doc = "Write the simulation trace as JSON Lines to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Print the metrics registry (counters and latency percentiles) on exit." in
  Arg.(value & opt bool false & info [ "metrics" ] ~docv:"BOOL" ~doc)

(* An observer is only allocated when one of the flags asks for it, so
   the default runs keep the zero-cost disabled path. *)
let obs_of_flags trace metrics =
  if trace <> None || metrics then Some (Plwg_obs.create ()) else None

let finish_obs ?trace ~metrics obs =
  match obs with
  | None -> ()
  | Some o ->
      (match trace with
      | Some file ->
          Plwg_obs.Sink.write_file o.Plwg_obs.sink file;
          Printf.printf "trace: %d events written to %s (%d dropped by the ring)\n" (Plwg_obs.Sink.length o.Plwg_obs.sink)
            file
            (Plwg_obs.Sink.dropped o.Plwg_obs.sink)
      | None -> ());
      if metrics then Plwg_obs.Metrics.report Format.std_formatter o.Plwg_obs.metrics

(* ---------------- figure2 ---------------- *)

let figure2_cmd =
  let ns_arg =
    let doc = "Comma-separated group counts per set (the x axis)." in
    Arg.(value & opt (list int) [ 1; 2; 4; 8; 12 ] & info [ "n"; "groups" ] ~docv:"N,..." ~doc)
  in
  let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.") in
  let run ns seed = Plwg_harness.Figure2.print_all ~ns ~seed () in
  Cmd.v
    (Cmd.info "figure2" ~doc:"Reproduce Figure 2: latency/throughput/recovery across service modes.")
    Term.(const run $ ns_arg $ seed_arg)

(* ---------------- scenario ---------------- *)

let scenario_cmd =
  let seed_arg = Arg.(value & opt int 90 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.") in
  let run seed trace metrics =
    let obs = obs_of_flags trace metrics in
    let outcome = Plwg_harness.Scenario.run ?obs ~seed () in
    Plwg_harness.Scenario.print outcome;
    finish_obs ?trace ~metrics obs;
    if
      not outcome.Plwg_harness.Scenario.converged
      || not (List.is_empty outcome.Plwg_harness.Scenario.trace_violations)
    then exit 1
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Reproduce Tables 3-4 / Figures 3-4: the partition criss-cross walkthrough.")
    Term.(const run $ seed_arg $ trace_arg $ metrics_arg)

(* ---------------- ablations ---------------- *)

let ablation_cmd =
  let which_arg =
    let doc = "Which ablation: policy, period, gossip, merge, or all." in
    Arg.(value & pos 0 (enum [ ("policy", `Policy); ("period", `Period); ("gossip", `Gossip); ("merge", `Merge); ("all", `All) ]) `All & info [] ~docv:"WHICH" ~doc)
  in
  let run which =
    let pick = function
      | `Policy -> Plwg_harness.Ablation.policy_sweep ()
      | `Period -> Plwg_harness.Ablation.heuristic_period ()
      | `Gossip -> Plwg_harness.Ablation.anti_entropy ()
      | `Merge -> Plwg_harness.Ablation.merge_cost ()
      | `All ->
          Plwg_harness.Ablation.policy_sweep ();
          Plwg_harness.Ablation.heuristic_period ();
          Plwg_harness.Ablation.anti_entropy ();
          Plwg_harness.Ablation.merge_cost ()
    in
    pick which
  in
  Cmd.v (Cmd.info "ablation" ~doc:"Run the ablation experiments.") Term.(const run $ which_arg)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed.") in
  let runs_arg = Arg.(value & opt int 10 & info [ "runs" ] ~docv:"RUNS" ~doc:"Number of generated schedules.") in
  let profile_arg =
    let doc = "Intensity profile: quick, default or heavy." in
    Arg.(value & opt string "default" & info [ "profile" ] ~docv:"PROFILE" ~doc)
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorthand for --profile quick (the smoke-campaign setting).")
  in
  let shrink_arg =
    Arg.(value & flag & info [ "shrink" ] ~doc:"On failure, minimize the first failing schedule with ddmin.")
  in
  let replay_arg =
    let doc = "Replay a repro artifact (as written by --shrink) instead of generating a campaign." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Where --shrink writes the repro artifact." in
    Arg.(value & opt string "chaos_repro.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let determinism_arg =
    Arg.(
      value & flag
      & info [ "check-determinism" ]
          ~doc:
            "Execute every schedule twice and byte-compare the serialized traces; a divergence fails the run. \
             Roughly doubles campaign cost.")
  in
  let module Chaos = Plwg_harness.Chaos in
  let print_verdict v =
    Printf.printf "run %3d  seed %-10d %-8s %2d steps  %s\n%!" v.Chaos.run v.Chaos.schedule.Chaos.seed
      (Chaos.mode_to_string v.Chaos.schedule.Chaos.mode)
      (List.length v.Chaos.schedule.Chaos.script)
      (if v.Chaos.failures = [] then "ok" else "FAILED");
    List.iter (fun f -> Printf.printf "         %s\n" f) v.Chaos.failures
  in
  let replay file metrics_reg on_trace check_determinism =
    let json = Plwg_obs.Json.of_string (In_channel.with_open_text file In_channel.input_all) in
    match Chaos.of_repro_json json with
    | Error msg ->
        Printf.eprintf "chaos: cannot replay %s: %s\n" file msg;
        exit 2
    | Ok schedule ->
        let verdict = Chaos.run_schedule ?metrics:metrics_reg ?on_trace ~check_determinism schedule in
        print_verdict verdict;
        if check_determinism && not (List.exists (String.starts_with ~prefix:"determinism:") verdict.Chaos.failures)
        then Printf.printf "replay is deterministic (traces byte-identical)\n";
        verdict.Chaos.failures <> []
  in
  let run seed runs profile_name quick do_shrink replay_file out trace metrics check_determinism =
    let metrics_reg = if metrics then Some (Plwg_obs.Metrics.create ()) else None in
    let trace_oc = Option.map open_out trace in
    let on_trace =
      Option.map
        (fun oc entries ->
          List.iter (fun e -> output_string oc (Plwg_obs.Json.to_string (Plwg_obs.Event.to_json e) ^ "\n")) entries)
        trace_oc
    in
    let any_failed =
      match replay_file with
      | Some file -> replay file metrics_reg on_trace check_determinism
      | None ->
          let profile =
            match Chaos.profile_of_string (if quick then "quick" else profile_name) with
            | Ok p -> p
            | Error msg ->
                Printf.eprintf "chaos: %s\n" msg;
                exit 2
          in
          let report =
            Chaos.campaign ?metrics:metrics_reg ?on_trace ~on_verdict:print_verdict ~check_determinism ~seed
              ~runs profile
          in
          let failed = Chaos.failed report in
          Printf.printf "%d/%d schedules passed the convergence + safety oracles\n" (runs - List.length failed) runs;
          (match (failed, do_shrink) with
          | worst :: _, true ->
              Printf.printf "shrinking run %d (seed %d, %d steps)...\n%!" worst.Chaos.run
                worst.Chaos.schedule.Chaos.seed
                (List.length worst.Chaos.schedule.Chaos.script);
              let minimized =
                Chaos.shrink
                  ~fails:(fun s -> (Chaos.run_schedule s).Chaos.failures <> [])
                  worst.Chaos.schedule
              in
              Out_channel.with_open_text out (fun oc ->
                  output_string oc (Plwg_obs.Json.to_string (Chaos.to_repro_json minimized));
                  output_char oc '\n');
              Printf.printf "minimized to %d steps; replay with: plwg_cli chaos --replay %s\n"
                (List.length minimized.Chaos.script) out
          | _ -> ());
          failed <> []
    in
    (match trace_oc with
    | Some oc ->
        close_out oc;
        Printf.printf "trace: written to %s\n" (Option.get trace)
    | None -> ());
    (match metrics_reg with Some m -> Plwg_obs.Metrics.report Format.std_formatter m | None -> ());
    if any_failed then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded chaos campaign: random crash/partition/loss schedules judged by convergence and safety oracles, \
          with ddmin schedule shrinking.")
    Term.(
      const run $ seed_arg $ runs_arg $ profile_arg $ quick_arg $ shrink_arg $ replay_arg $ out_arg $ trace_arg
      $ metrics_arg $ determinism_arg)

let conformance_cmd =
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Scenario seed.") in
  let domains_arg =
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc:"Domain count for the multi-domain backend.")
  in
  let run seed domains =
    match Plwg_harness.Conformance.check ~seed ~n_domains:domains with
    | Ok () ->
        Printf.printf
          "conformance: seed %d, %d domains: sim deterministic, domains deterministic, equivalent, 0 VS violations\n"
          seed domains
    | Error errs ->
        List.iter (fun e -> Printf.eprintf "conformance: %s\n" e) errs;
        exit 1
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Run the seeded conformance scenario on the deterministic sim and the OCaml 5 multi-domain backend; \
          check determinism of each, trace-equivalence (modulo per-node commutativity) between them, and the \
          virtual-synchrony invariants on both.")
    Term.(const run $ seed_arg $ domains_arg)

(* ---------------- check ---------------- *)

let check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A JSON Lines trace, as written by --trace.")
  in
  let run file =
    let entries = Plwg_obs.Sink.load_file file in
    let n_nodes = Plwg_harness.Trace_check.n_nodes_of entries in
    match Plwg_harness.Trace_check.check_all ~allow_open:true ~n_nodes entries with
    | [] -> Printf.printf "check: %d entries, %d nodes, 0 violations\n" (List.length entries) n_nodes
    | violations ->
        List.iter (fun v -> Printf.printf "violation: %s\n" v) violations;
        Printf.printf "check: %d entries, %d nodes, %d violations\n" (List.length entries) n_nodes
          (List.length violations);
        exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Replay a dumped trace through every invariant offline: virtual synchrony at both group layers, flush \
          pairing (open flushes allowed), no DATA across a partition, and the Section-6 reconcile order.")
    Term.(const run $ file_arg)

let main_cmd =
  let doc = "Partitionable Light-Weight Groups (Rodrigues & Guo, ICDCS 2000) - reproduction driver" in
  Cmd.group
    (Cmd.info "plwg" ~version:"1.0.0" ~doc)
    [ figure2_cmd; scenario_cmd; ablation_cmd; chaos_cmd; conformance_cmd; check_cmd ]

let () = exit (Cmd.eval main_cmd)
