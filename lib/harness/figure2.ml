open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Service = Plwg.Service

type Payload.t += Bg of int | Probe of int

type result = { latency_ms : float; throughput_msg_s : float; recovery_ms : float }

(* Heavier per-message CPU cost than the protocol-test default: the
   interference effect (foreign traffic occupying receiver CPUs) is the
   phenomenon under measurement. *)
let experiment_model = { Model.default with Model.proc_time = Time.us 100 }

let set_a = [ 0; 1; 2; 3 ]
let set_b = [ 4; 5; 6; 7 ]

let group_a i = { Gid.seq = 2_000_000 + i; origin = 0 }
let group_b i = { Gid.seq = 3_000_000 + i; origin = 4 }

type phase = Warmup | Latency | Throughput | Done

let run ~mode ~n ~seed =
  let phase = ref Warmup in
  (* (probe id -> (node -> delivery time)), and a goodput counter *)
  let probe_deliveries : (int, (Node_id.t * Time.t) list ref) Hashtbl.t = Hashtbl.create 64 in
  let goodput = ref 0 in
  let stack_ref = ref None in
  let now () = match !stack_ref with Some s -> Sim_rt.now s.Stack.engine | None -> Time.zero in
  let callbacks node =
    {
      Service.on_view = (fun _ _ -> ());
      Service.on_data =
        (fun _ ~src:_ payload ->
          match payload with
          | Probe k ->
              let bucket =
                match Hashtbl.find_opt probe_deliveries k with
                | Some b -> b
                | None ->
                    let b = ref [] in
                    Hashtbl.add probe_deliveries k b;
                    b
              in
              bucket := (node, now ()) :: !bucket;
              if !phase = Throughput then incr goodput
          | Bg _ -> if !phase = Throughput then incr goodput
          | _ -> ());
    }
  in
  (* heuristics run on the paper's slow cadence so that group creation
     does not race the interference rule (Section 3.2) *)
  let config = { Service.default_config with Service.policy_period = Time.sec 8 } in
  let stack = Stack.create ~model:experiment_model ~seed ~config ~callbacks ~mode ~n_app:8 () in
  stack_ref := Some stack;
  let groups_a = List.init n (fun i -> group_a (i + 1)) in
  let groups_b = List.init n (fun i -> group_b (i + 1)) in
  let members g = if List.exists (Gid.equal g) groups_a then set_a else set_b in
  (* --- setup: creators first, staggered (groups come into existence
     over time, as in the paper's applications), so the optimistic
     initial mapping lands each set's groups on one HWG; then the
     remaining members join --- *)
  List.iteri
    (fun i g ->
      let (_ : Sim_rt.cancel) =
        Sim_rt.after stack.Stack.engine (Time.ms (250 * i)) (fun () -> Service.join stack.Stack.services.(0) g)
      in
      ())
    groups_a;
  List.iteri
    (fun i g ->
      let (_ : Sim_rt.cancel) =
        Sim_rt.after stack.Stack.engine (Time.ms (250 * i)) (fun () -> Service.join stack.Stack.services.(4) g)
      in
      ())
    groups_b;
  Stack.run stack (Time.add (Time.sec 5) (Time.ms (250 * n)));
  List.iter
    (fun g -> List.iter (fun node -> Service.join stack.Stack.services.(node) g) (List.tl (members g)))
    (groups_a @ groups_b);
  let all_groups = groups_a @ groups_b in
  let fully_formed g =
    List.for_all
      (fun node ->
        match Service.view_of stack.Stack.services.(node) g with
        | Some view -> List.equal Node_id.equal view.View.members (members g)
        | None -> false)
      (members g)
  in
  (* in Dynamic mode, also wait until the policies have consolidated
     each set's groups onto a single HWG (the paper's steady state for
     this workload: a_i on HWG1, b_i on HWG2) *)
  let consolidated () =
    match mode with
    | Stack.Direct | Stack.Static -> true
    | Stack.Dynamic ->
        let distinct groups node =
          List.sort_uniq Gid.compare (List.filter_map (Service.mapping_of stack.Stack.services.(node)) groups)
        in
        List.length (distinct groups_a 0) = 1 && List.length (distinct groups_b 4) = 1
  in
  let deadline = ref 150 in
  while (not (List.for_all fully_formed all_groups && consolidated ())) && !deadline > 0 do
    Stack.run stack (Time.sec 1);
    decr deadline
  done;
  Stack.run stack (Time.sec 3);
  (* --- periodic open-loop senders --- *)
  let senders_active = ref true in
  let start_background ~period g =
    let sender = List.hd (members g) in
    let counter = ref 0 in
    let rec fire () =
      if !senders_active then begin
        incr counter;
        (match Service.view_of stack.Stack.services.(sender) g with
        | Some _ -> Service.send stack.Stack.services.(sender) g (Bg !counter)
        | None -> ());
        let (_ : Sim_rt.cancel) = Sim_rt.after stack.Stack.engine period fire in
        ()
      end
    in
    let (_ : Sim_rt.cancel) = Sim_rt.after stack.Stack.engine (Time.us (97 * sender)) fire in
    ()
  in
  (* --- latency phase: light background load on every group, probes on a_1 --- *)
  phase := Latency;
  List.iter (start_background ~period:(Time.ms 4)) all_groups;
  let probe_sent : (int, Time.t) Hashtbl.t = Hashtbl.create 64 in
  let probes = 60 in
  let rec send_probe k =
    if k <= probes then begin
      Hashtbl.replace probe_sent k (Sim_rt.now stack.Stack.engine);
      (match Service.view_of stack.Stack.services.(0) (group_a 1) with
      | Some _ -> Service.send stack.Stack.services.(0) (group_a 1) (Probe k)
      | None -> ());
      let (_ : Sim_rt.cancel) = Sim_rt.after stack.Stack.engine (Time.ms 50) (fun () -> send_probe (k + 1)) in
      ()
    end
  in
  send_probe 1;
  Stack.run stack (Time.sec 4);
  senders_active := false;
  Stack.run stack (Time.sec 1);
  let latency_samples =
    Plwg_util.Tbl.fold_sorted ~cmp:Int.compare
      (fun k bucket acc ->
        match Hashtbl.find_opt probe_sent k with
        | Some sent ->
            let deliveries = !bucket in
            if List.length deliveries >= List.length set_a then
              let slowest = List.fold_left (fun acc (_, t) -> max acc t) Time.zero deliveries in
              Time.to_float_ms (Time.diff slowest sent) :: acc
            else acc
        | None -> acc)
      probe_deliveries []
  in
  (* --- throughput phase: saturating open-loop load on every group --- *)
  phase := Throughput;
  senders_active := true;
  goodput := 0;
  List.iter (start_background ~period:(Time.ms 2)) all_groups;
  let window = Time.sec 4 in
  Stack.run stack window;
  let delivered_in_window = !goodput in
  senders_active := false;
  phase := Done;
  Stack.run stack (Time.sec 2) (* quiesce: drain queues before the crash *);
  (* --- recovery phase: crash a member of set A.  Recovery is counted
     from each survivor's *detection* of the crash (so the shared
     failure-detector timeout, identical across modes, does not drown
     the per-group recovery work being compared). --- *)
  let survivors = [ 0; 1; 2 ] in
  let detection : (Node_id.t, Time.t) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun node ->
      Plwg_detector.Detector.on_change stack.Stack.detectors.(node) (fun peer status ->
          if
            Node_id.equal peer 3
            && (match status with Plwg_detector.Detector.Unreachable -> true | Reachable -> false)
            && not (Hashtbl.mem detection node)
          then
            Hashtbl.replace detection node (Sim_rt.now stack.Stack.engine)))
    survivors;
  (* recovery reads only post-crash installs; the ring restarts here *)
  Plwg_obs.Sink.clear stack.Stack.obs.Plwg_obs.sink;
  let crash_time = Sim_rt.now stack.Stack.engine in
  Sim_rt.crash stack.Stack.engine 3;
  Stack.run stack (Time.sec 15);
  (* in Direct mode the application groups are the HWGs themselves *)
  let layer = match mode with Stack.Direct -> Plwg_obs.Event.Hwg | Stack.Static | Stack.Dynamic -> Plwg_obs.Event.Lwg in
  let entries = Trace_check.entries stack.Stack.obs.Plwg_obs.sink in
  let recovery_of_group g =
    (* plwg-lint: allow gid-string-boundary — trace lookup key, once per group after the run *)
    let group = Gid.to_string g in
    (* per survivor: first view installed after the crash that excludes
       node 3; the group has recovered when the slowest survivor has *)
    let recover_at node =
      let installs =
        List.filter_map
          (fun { Plwg_obs.Event.at_us; event } ->
            match event with
            | Plwg_obs.Event.View_installed { members; _ } when at_us > crash_time && not (List.mem 3 members) ->
                Some at_us
            | _ -> None)
          (Trace_check.installs_of ~layer ~node ~group entries)
      in
      match installs with [] -> None | times -> Some (List.fold_left min (List.hd times) times)
    in
    (* the recovery protocol cannot start before the first survivor
       detects the crash; per-survivor detection skew (sweep phase) is
       detector noise, not recovery work *)
    let origin =
      Plwg_util.Tbl.fold_sorted ~cmp:Node_id.compare
        (fun _ t acc -> match acc with None -> Some t | Some a -> Some (min a t))
        detection None
    in
    match origin with
    | None -> None
    | Some origin ->
        let finishes = List.filter_map recover_at survivors in
        if List.length finishes = List.length survivors then
          Some (Time.diff (List.fold_left max Time.zero finishes) origin)
        else None
  in
  let recovery_ms =
    let spans = List.filter_map recovery_of_group groups_a in
    if List.length spans = List.length groups_a then
      Time.to_float_ms (List.fold_left max 0 spans)
    else Float.infinity
  in
  {
    latency_ms = Metrics.mean latency_samples;
    throughput_msg_s = float_of_int delivered_in_window /. Time.to_float_sec window;
    recovery_ms;
  }

let modes = [ ("no-lwg", Stack.Direct); ("static", Stack.Static); ("dynamic", Stack.Dynamic) ]

let print_all ?(ns = [ 1; 2; 4; 8; 12 ]) ?(seed = 7) () =
  let results =
    List.map
      (fun (label, mode) ->
        ( label,
          List.map
            (fun n ->
              let r = run ~mode ~n ~seed in
              (n, r))
            ns ))
      modes
  in
  let panel header pick =
    Metrics.print_table ~header ~x_label:"n"
      (List.map
         (fun (label, points) -> { Metrics.label; points = List.map (fun (n, r) -> (n, pick r)) points })
         results)
  in
  panel "Figure 2(a): message latency (ms), 2n groups over 8 processes" (fun r -> r.latency_ms);
  panel "Figure 2(b): aggregate throughput (msgs/s delivered)" (fun r -> r.throughput_msg_s);
  panel "Figure 2(c): recovery time after member crash (ms)" (fun r -> r.recovery_ms)
