(* Tests for the chaos campaign engine: deterministic generation and
   campaigns, the convergence oracle on a hand-crafted coordinator-crash
   schedule, the schedule shrinker, repro-artifact round-trips, and
   replay regressions for the minimized schedules that caught real
   protocol bugs in the LWG merge path. *)

open Plwg_sim
module Event = Plwg_obs.Event
module Json = Plwg_obs.Json
module Chaos = Plwg_harness.Chaos
module Stack = Plwg_harness.Stack
module Trace_check = Plwg_harness.Trace_check

let at us = Time.add Time.zero (Time.us us)
let profile name = Result.get_ok (Chaos.profile_of_string name)

(* Same (seed, mode, profile) must regenerate the same schedule, and the
   step count must respect the profile bounds. *)
let test_generate_deterministic () =
  let p = profile "default" in
  let a = Chaos.generate ~seed:5 ~mode:Stack.Dynamic p in
  let b = Chaos.generate ~seed:5 ~mode:Stack.Dynamic p in
  Alcotest.(check bool) "identical schedules" true (Chaos.to_repro_json a = Chaos.to_repro_json b);
  let steps = List.length a.Chaos.script in
  Alcotest.(check bool) "within profile bounds" true
    (steps >= p.Chaos.steps_lo && steps <= p.Chaos.steps_hi)

(* A campaign is a pure function of (seed, runs, profile): run it twice
   and compare the verdicts.  The quick fixed-seed campaign must also be
   green — this is the in-tree twin of the runtest smoke campaign. *)
let test_campaign_deterministic () =
  let summarize (r : Chaos.report) =
    List.map
      (fun (v : Chaos.verdict) -> (v.Chaos.run, v.Chaos.schedule.Chaos.seed, v.Chaos.failures))
      r.Chaos.verdicts
  in
  let a = Chaos.campaign ~seed:11 ~runs:6 (profile "quick") in
  let b = Chaos.campaign ~seed:11 ~runs:6 (profile "quick") in
  Alcotest.(check bool) "same verdicts" true (summarize a = summarize b);
  Alcotest.(check int) "all runs pass" 0 (List.length (Chaos.failed a))

(* Regression for the epoch-restart path: crash a member so the HWG
   coordinator opens a flush, then crash the coordinator itself between
   its flush-begin and the view install.  The survivors must restart the
   flush under a new coordinator, the recovered nodes must rejoin, and
   the full oracle — including flush pairing with no open flushes —
   must pass.  The crash instant is found, not hard-coded: a first run
   of the member-crash prefix alone shows when the coordinator begins
   its flush, and the sim is deterministic, so the full run repeats
   that prefix and crashes the coordinator 200 us into the flush.  The
   trace still confirms the crash landed mid-flush, so a timing drift
   fails loudly rather than silently degrading the test into a
   post-flush crash. *)
let test_coordinator_crash_mid_flush () =
  let member_crash_us = 9_000_000 in
  let t0 = 18_000_000 in
  let schedule script =
    {
      Chaos.seed = 42;
      mode = Stack.Static;
      profile = profile "quick";
      script = (at member_crash_us, Fault.Crash 3) :: script;
      tail =
        (at t0, Fault.Set_model Model.default)
        :: List.init 4 (fun node -> (at (t0 + (100_000 * (node + 1))), Fault.Recover node))
        @ [ (at (t0 + 600_000), Fault.Heal) ];
    }
  in
  let entries = ref [] in
  ignore (Chaos.run_schedule ~on_trace:(fun e -> entries := e) (schedule []) : Chaos.verdict);
  let flush_begin_us =
    List.find_map
      (fun { Event.at_us; event } ->
        match event with
        | Event.Flush_begin { node = 0; _ } when at_us > member_crash_us -> Some at_us
        | _ -> None)
      !entries
  in
  let crash_us =
    match flush_begin_us with
    | Some us -> us + 200
    | None -> Alcotest.fail "the member crash opened no flush at the coordinator"
  in
  let verdict = Chaos.run_schedule ~on_trace:(fun e -> entries := e) (schedule [ (at crash_us, Fault.Crash 0) ]) in
  Alcotest.(check (list string)) "oracle passes" [] verdict.Chaos.failures;
  let entries = !entries in
  (* The coordinator (node 0) had a flush open when it was crashed. *)
  let open_at_crash =
    List.exists
      (fun { Event.at_us; event } ->
        match event with
        | Event.Flush_begin { node = 0; group; epoch } ->
            at_us <= crash_us
            && not
                 (List.exists
                    (fun { Event.at_us = e_at; event } ->
                      match event with
                      | Event.Flush_end { node = 0; group = g'; epoch = e'; _ } ->
                          g' = group && e' = epoch && e_at <= crash_us
                      | _ -> false)
                    entries)
        | _ -> false)
      entries
  in
  Alcotest.(check bool) "coordinator crashed mid-flush" true open_at_crash;
  (* The survivors restarted the epoch and installed a view without the
     two crashed nodes before the cleanup tail brought them back. *)
  let survivors_regrouped =
    List.exists
      (fun { Event.at_us; event } ->
        match event with
        | Event.View_installed { node = 1; members = [ 1; 2 ]; _ } -> at_us > crash_us && at_us < t0
        | _ -> false)
      entries
  in
  Alcotest.(check bool) "survivors regrouped without coordinator" true survivors_regrouped;
  Alcotest.(check (list string)) "flush pairing" [] (Trace_check.check_flush_pairing ~allow_open:false entries)

(* ddmin on a synthetic predicate: of an 8-step script only the one
   Crash 0 matters; the shrinker must strip everything else and keep the
   schedule failing. *)
let test_shrinker_minimizes () =
  let base = Chaos.generate ~seed:7 ~mode:Stack.Static (profile "quick") in
  let script =
    [
      (at 9_000_000, Fault.Heal);
      (at 10_000_000, Fault.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
      (at 11_000_000, Fault.Crash 1);
      (at 12_000_000, Fault.Crash 0);
      (at 13_000_000, Fault.Recover 1);
      (at 14_000_000, Fault.Heal);
      (at 15_000_000, Fault.Set_model Model.default);
      (at 16_000_000, Fault.Heal);
    ]
  in
  let schedule = { base with Chaos.script } in
  let fails (s : Chaos.schedule) =
    List.exists (fun (_, step) -> step = Fault.Crash 0) s.Chaos.script
  in
  Alcotest.(check bool) "original fails" true (fails schedule);
  let minimized = Chaos.shrink ~fails schedule in
  Alcotest.(check bool) "minimized still fails" true (fails minimized);
  Alcotest.(check int) "minimized to one step" 1 (List.length minimized.Chaos.script);
  (match minimized.Chaos.script with
  | [ (_, Fault.Crash 0) ] -> ()
  | _ -> Alcotest.fail "expected only the Crash 0 step to survive");
  Alcotest.(check bool) "tail untouched" true (minimized.Chaos.tail = schedule.Chaos.tail)

let test_repro_roundtrip () =
  let schedule = Chaos.generate ~seed:9 ~mode:Stack.Dynamic (profile "heavy") in
  match Chaos.of_repro_json (Chaos.to_repro_json schedule) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check bool) "round trip" true (Chaos.to_repro_json back = Chaos.to_repro_json schedule)

(* Minimized schedules from campaigns that caught real bugs, embedded as
   the repro artifacts the shrinker emitted.  Each must replay green. *)
let replay name json () =
  match Chaos.of_repro_json (Json.of_string json) with
  | Error e -> Alcotest.fail (name ^ ": " ^ e)
  | Ok schedule ->
      let verdict = Chaos.run_schedule schedule in
      Alcotest.(check (list string)) name [] verdict.Chaos.failures

(* A falsely-suspected node was excluded from the carrier while the rest
   drained their outboxes post-flush; the later merge minted one view for
   holders whose delivered sets in the shared predecessor diverged.
   Fixed by carrier-lineage tagging + EVS transitional views. *)
let repro_divergent_merge =
  {|{"schema":"plwg-chaos-repro/1","seed":332605,"mode":"dynamic","profile":"default","script":[{"at_us":12987295,"step":"partition","classes":[[5],[0,1,2,3,4,6]]},{"at_us":13244124,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":223300,"proc_us":20},{"at_us":13000000,"step":"crash","node":3}],"tail":[{"at_us":30000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":0,"proc_us":20},{"at_us":30100000,"step":"recover","node":0},{"at_us":30200000,"step":"recover","node":1},{"at_us":30300000,"step":"recover","node":2},{"at_us":30400000,"step":"recover","node":3},{"at_us":30500000,"step":"recover","node":4},{"at_us":30600000,"step":"recover","node":5},{"at_us":30700000,"step":"recover","node":6},{"at_us":30900000,"step":"partition","classes":[[0,5],[1,2,3,4,6]]}]}|}

(* A mid-window crash plus a partition left one side holding a stale
   LWG view; the post-heal merge reused its messages as if the history
   were shared.  Fixed by the non-continuous-lineage shrink guard. *)
let repro_stale_exclusion =
  {|{"schema":"plwg-chaos-repro/1","seed":760231,"mode":"dynamic","profile":"default","script":[{"at_us":17000000,"step":"partition","classes":[[0,5,6,1,3,4],[2]]},{"at_us":18000000,"step":"crash","node":4},{"at_us":26000000,"step":"crash","node":3}],"tail":[{"at_us":30000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":0,"proc_us":20},{"at_us":30100000,"step":"recover","node":0},{"at_us":30200000,"step":"recover","node":1},{"at_us":30300000,"step":"recover","node":2},{"at_us":30400000,"step":"recover","node":3},{"at_us":30500000,"step":"recover","node":4},{"at_us":30600000,"step":"recover","node":5},{"at_us":30700000,"step":"recover","node":6},{"at_us":30900000,"step":"heal"}]}|}

(* A recovered node ran a merge round knowing only its own pre-crash
   view and minted a view id that collided with one minted elsewhere.
   Fixed by requiring every present carrier member's ALL-VIEWS
   contribution before computing merges. *)
let repro_recovered_merge =
  {|{"schema":"plwg-chaos-repro/1","seed":380119,"mode":"dynamic","profile":"default","script":[{"at_us":12078175,"step":"crash","node":3},{"at_us":13567088,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":206129,"proc_us":20},{"at_us":14736459,"step":"recover","node":3}],"tail":[{"at_us":30000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":0,"proc_us":20},{"at_us":30100000,"step":"recover","node":0},{"at_us":30200000,"step":"recover","node":1},{"at_us":30300000,"step":"recover","node":2},{"at_us":30400000,"step":"recover","node":3},{"at_us":30500000,"step":"recover","node":4},{"at_us":30600000,"step":"recover","node":5},{"at_us":30700000,"step":"recover","node":6},{"at_us":30900000,"step":"heal"}]}|}

(* Sustained 18% message loss alone: lost L_stop/L_stop_ok rounds must
   retry, and the merge protocol must converge once the loss clears. *)
let repro_loss_burst =
  {|{"schema":"plwg-chaos-repro/1","seed":118788,"mode":"dynamic","profile":"heavy","script":[{"at_us":12000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":181394,"proc_us":20}],"tail":[{"at_us":40000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":0,"proc_us":20},{"at_us":40100000,"step":"recover","node":0},{"at_us":40200000,"step":"recover","node":1},{"at_us":40300000,"step":"recover","node":2},{"at_us":40400000,"step":"recover","node":3},{"at_us":40500000,"step":"recover","node":4},{"at_us":40600000,"step":"recover","node":5},{"at_us":40700000,"step":"recover","node":6},{"at_us":40800000,"step":"recover","node":7},{"at_us":41000000,"step":"heal"}]}|}

(* ROADMAP's heavy-profile liveness miss: `chaos --seed 118788 --runs 1
   --profile heavy` used to strand an isolated node's carrier view and
   two MULTIPLE-MAPPINGS past the settle span.  The sorted-iteration
   determinism fixes (plwg-lint's hashtbl-iter-order sweep) changed the
   message emission order and the schedule now converges; pin it so the
   liveness fix cannot silently regress, and run the schedule twice to
   hold the trace byte-for-byte reproducible. *)
let test_heavy_118788_converges () =
  let schedule = Chaos.generate ~seed:118788 ~mode:Stack.Dynamic (profile "heavy") in
  let verdict = Chaos.run_schedule ~check_determinism:true schedule in
  let diverged, failures = List.partition (String.starts_with ~prefix:"determinism:") verdict.Chaos.failures in
  Alcotest.(check (list string)) "formerly-failing heavy seed converges" [] failures;
  Alcotest.(check (list string)) "trace is seed-reproducible" [] diverged

(* A ring that overflowed holds only the end of the run; the oracle
   must fail such a run rather than pass its trace checks on what is
   left. *)
let test_oracle_fails_truncated_trace () =
  let obs = Plwg_obs.create ~capacity:64 () in
  let stack = Stack.create ~obs ~seed:3 ~mode:Stack.Direct ~n_app:3 () in
  let lwg = Chaos.chaos_lwg 0 in
  Array.iter (fun s -> Plwg.Service.join s lwg) stack.Stack.services;
  Stack.run stack (Time.sec 6);
  let dropped = Plwg_obs.Sink.dropped obs.Plwg_obs.sink in
  Alcotest.(check bool) "the ring overflowed" true (dropped > 0);
  Alcotest.(check (list string)) "truncation is the failure"
    [ Printf.sprintf "trace: trace truncated: %d entries dropped" dropped ]
    (Chaos.oracle stack ~lwgs:[ lwg ])

(* Three crashes on the static carrier left a recovered member in a
   stale view whose coordinator had moved on.  The stale member
   announced its view at every announce it heard from the other view,
   whose members answered in kind: with the coordinator in both views
   each announce begot three more, the receive queues grew without
   bound and no flush could finish.  Fixed by deferring such an
   announce to the member's next announce round. *)
let repro_announce_storm =
  {|{"schema":"plwg-chaos-repro/1","seed":7924,"mode":"static","profile":"heavy","script":[{"at_us":14000000,"step":"crash","node":3},{"at_us":24000000,"step":"crash","node":4},{"at_us":39000000,"step":"crash","node":5}],"tail":[{"at_us":40000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":0,"proc_us":20},{"at_us":40100000,"step":"recover","node":0},{"at_us":40200000,"step":"recover","node":1},{"at_us":40300000,"step":"recover","node":2},{"at_us":40400000,"step":"recover","node":3},{"at_us":40500000,"step":"recover","node":4},{"at_us":40600000,"step":"recover","node":5},{"at_us":40800000,"step":"heal"}]}|}

(* Default profile, seed 11, run 34: partition, 23 % loss, heal on the
   static carrier.  It once ended with a virtual-synchrony violation in
   an LWG.  One way there: two holders of one LWG view cut at the same
   carrier merge parted at different later carrier views, and a lineage
   tag that kept only the first cut called them synchronised, so a
   merge moved both straight into one view though one had delivered a
   message the other never saw.  The tag now keeps every carrier
   discontinuity. *)
let repro_lineage_parted =
  {|{"schema":"plwg-chaos-repro/1","seed":269257,"mode":"static","profile":"default","script":[{"at_us":13501483,"step":"partition","classes":[[1,2,4],[0,3]]},{"at_us":14521143,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":235149,"proc_us":20},{"at_us":15883383,"step":"heal"}],"tail":[{"at_us":30000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":0,"proc_us":20},{"at_us":30100000,"step":"recover","node":0},{"at_us":30200000,"step":"recover","node":1},{"at_us":30300000,"step":"recover","node":2},{"at_us":30400000,"step":"recover","node":3},{"at_us":30500000,"step":"recover","node":4},{"at_us":30700000,"step":"heal"}]}|}

(* Heavy profile, seed 5, run 19, under a merge round that closes over
   the members that answered: at one carrier install a round merged a
   view without one of its holders while that holder shrank the same
   view locally, and both minted the same id with different members.
   Fixed by latching such a holder's lineage so it requests a round
   instead of shrinking. *)
let repro_partial_round_shrink =
  {|{"schema":"plwg-chaos-repro/1","seed":150466,"mode":"static","profile":"heavy","script":[{"at_us":12900000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":57478,"proc_us":20},{"at_us":19433540,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":190218,"proc_us":20},{"at_us":20743270,"step":"partition","classes":[[0,1,3,4,5],[2]]},{"at_us":24194112,"step":"partition","classes":[[1,5],[0],[2,3,4]]}],"tail":[{"at_us":40000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":0,"proc_us":20},{"at_us":40100000,"step":"recover","node":0},{"at_us":40200000,"step":"recover","node":1},{"at_us":40300000,"step":"recover","node":2},{"at_us":40400000,"step":"recover","node":3},{"at_us":40500000,"step":"recover","node":4},{"at_us":40600000,"step":"recover","node":5},{"at_us":40800000,"step":"heal"}]}|}

(* Default profile, seed 21, run 3, found with that latch removed: a
   round listed node 0 in the merged view, but the view node 0 had
   contributed was no longer the one it held, so node 0 did not install
   it.  Nothing asked for another round: the others kept a view listing
   node 0, node 0 kept its own, and the two mappings never reconciled.
   The latch has such a holder request rounds until one merges it. *)
let repro_partial_round_stale_holder =
  {|{"schema":"plwg-chaos-repro/1","seed":23778,"mode":"dynamic","profile":"default","script":[{"at_us":13601851,"step":"partition","classes":[[5,6],[0,4],[1,2,3]]},{"at_us":13828907,"step":"partition","classes":[[1,2,4,5],[0,3,6]]},{"at_us":15510023,"step":"partition","classes":[[3,4,5],[0,1,2,6]]},{"at_us":19214001,"step":"partition","classes":[[3,4],[0,2],[1,5,6]]},{"at_us":21873276,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":182836,"proc_us":20},{"at_us":22957792,"step":"heal"}],"tail":[{"at_us":30000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":0,"proc_us":20},{"at_us":30100000,"step":"recover","node":0},{"at_us":30200000,"step":"recover","node":1},{"at_us":30300000,"step":"recover","node":2},{"at_us":30400000,"step":"recover","node":3},{"at_us":30500000,"step":"recover","node":4},{"at_us":30600000,"step":"recover","node":5},{"at_us":30700000,"step":"recover","node":6},{"at_us":30900000,"step":"heal"}]}|}

(* Heavy profile, seed 8, run 6, shrunk to two steps.  At the heal two
   coordinators flushed the carrier at once: node 0 installed a view
   listing nodes 3, 4 and 5, but they had accepted node 4's Stop first
   and ignored it, and node 4 then yielded to node 0.  The three asked
   node 0 for a change forever; its view already listed them, so
   nobody flushed again.  A view holder stopped past twice the flush
   deadline by a change it does not run now asks for a flush. *)
let repro_yielded_flush =
  {|{"schema":"plwg-chaos-repro/1","seed":47522,"mode":"dynamic","profile":"heavy","script":[{"at_us":38000000,"step":"partition","classes":[[1,2,4],[0,3,5,6,7]]},{"at_us":39800000,"step":"partition","classes":[[4],[0,1,2,3,5,6,7]]}],"tail":[{"at_us":40000000,"step":"set-model","link_base_us":200,"link_jitter_us":100,"drop_ppm":0,"proc_us":20},{"at_us":40100000,"step":"recover","node":0},{"at_us":40200000,"step":"recover","node":1},{"at_us":40300000,"step":"recover","node":2},{"at_us":40400000,"step":"recover","node":3},{"at_us":40500000,"step":"recover","node":4},{"at_us":40600000,"step":"recover","node":5},{"at_us":40700000,"step":"recover","node":6},{"at_us":40800000,"step":"recover","node":7},{"at_us":41000000,"step":"heal"}]}|}

let suite =
  [
    Alcotest.test_case "generate is deterministic" `Quick test_generate_deterministic;
    Alcotest.test_case "campaign is deterministic and green" `Quick test_campaign_deterministic;
    Alcotest.test_case "coordinator crash mid-flush" `Quick test_coordinator_crash_mid_flush;
    Alcotest.test_case "shrinker minimizes to the failing step" `Quick test_shrinker_minimizes;
    Alcotest.test_case "repro artifact round trip" `Quick test_repro_roundtrip;
    Alcotest.test_case "replay: divergent-history merge" `Quick (replay "divergent merge" repro_divergent_merge);
    Alcotest.test_case "replay: stale view after exclusion" `Quick (replay "stale exclusion" repro_stale_exclusion);
    Alcotest.test_case "replay: recovered node merge round" `Quick (replay "recovered merge" repro_recovered_merge);
    Alcotest.test_case "replay: sustained loss burst" `Quick (replay "loss burst" repro_loss_burst);
    Alcotest.test_case "heavy seed 118788 converges deterministically" `Slow test_heavy_118788_converges;
    Alcotest.test_case "oracle fails a truncated trace" `Quick test_oracle_fails_truncated_trace;
    Alcotest.test_case "replay: announce storm" `Quick (replay "announce storm" repro_announce_storm);
    Alcotest.test_case "replay: holders parted after one cut" `Quick (replay "lineage parted" repro_lineage_parted);
    Alcotest.test_case "replay: shrink beside a partial round" `Quick
      (replay "partial round shrink" repro_partial_round_shrink);
    Alcotest.test_case "replay: stale holder after a partial round" `Quick
      (replay "partial round stale holder" repro_partial_round_stale_holder);
    Alcotest.test_case "replay: member stuck behind a yielded flush" `Quick (replay "yielded flush" repro_yielded_flush);
  ]
