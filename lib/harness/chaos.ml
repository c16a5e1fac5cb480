(* Chaos campaigns: seeded random fault schedules executed over the
   full stack, judged by a convergence oracle after a guaranteed
   quiescence tail, with a delta-debugging shrinker that turns any red
   schedule into a minimal reproducible artifact.

   The paper's claim is surviving *arbitrary* partition/crash/heal
   sequences; hand-written fault scripts only ever exercise the
   sequences someone thought of.  Here the schedule itself is drawn
   from a seeded generator, so a campaign is a pure function of
   [(seed, runs, profile)] and every failure is replayable from its
   seed alone. *)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Service = Plwg.Service
module Hwg = Plwg_vsync.Hwg
module Server = Plwg_naming.Server
module Db = Plwg_naming.Db
module Rng = Plwg_util.Rng
module Transport = Plwg_transport.Transport

type Payload.t += Chaos_app of int

let () = Payload.register_printer (function Chaos_app k -> Some (Printf.sprintf "chaos-app(%d)" k) | _ -> None)

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)
(* ------------------------------------------------------------------ *)

type profile = {
  name : string;
  n_app : int;
  n_lwgs : int;
  steps_lo : int;  (** inclusive bounds on the number of fault steps *)
  steps_hi : int;
  warmup : Time.span;  (** groups form and traffic flows before the first fault *)
  window : Time.span;  (** faults land uniformly inside this span *)
  settle : Time.span;  (** guaranteed fault-free quiescence tail *)
  traffic_period : Time.span;
}

let quick =
  {
    name = "quick";
    n_app = 4;
    n_lwgs = 2;
    steps_lo = 3;
    steps_hi = 6;
    warmup = Time.sec 8;
    window = Time.sec 10;
    settle = Time.sec 25;
    traffic_period = Time.ms 800;
  }

let default =
  {
    name = "default";
    n_app = 5;
    n_lwgs = 2;
    steps_lo = 5;
    steps_hi = 10;
    warmup = Time.sec 10;
    window = Time.sec 20;
    settle = Time.sec 30;
    traffic_period = Time.ms 500;
  }

let heavy =
  {
    name = "heavy";
    n_app = 6;
    n_lwgs = 3;
    steps_lo = 10;
    steps_hi = 16;
    warmup = Time.sec 10;
    window = Time.sec 30;
    settle = Time.sec 40;
    traffic_period = Time.ms 300;
  }

let profiles = [ quick; default; heavy ]

let profile_of_string name =
  match List.find_opt (fun p -> p.name = name) profiles with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown profile %S (expected quick, default or heavy)" name)

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

type schedule = {
  seed : int;  (** seeds both the stack and the generator *)
  mode : Stack.service_mode;
  profile : profile;
  script : (Time.t * Fault.step) list;  (** the chaotic window; what the shrinker minimizes *)
  tail : (Time.t * Fault.step) list;
      (** fixed cleanup: recover everyone, restore the base model, settle
          the topology — never shrunk, so a minimized script still ends
          in a state the oracle can judge *)
}

let mode_to_string = function Stack.Direct -> "direct" | Stack.Static -> "static" | Stack.Dynamic -> "dynamic"

let mode_of_string = function
  | "direct" -> Ok Stack.Direct
  | "static" -> Ok Stack.Static
  | "dynamic" -> Ok Stack.Dynamic
  | other -> Error (Printf.sprintf "unknown mode %S (expected direct, static or dynamic)" other)

let n_servers_of_mode = function Stack.Dynamic -> Stack.n_servers | Stack.Direct | Stack.Static -> 0

(* A random partition: assign every node (servers included) to one of
   2-3 classes; empty classes vanish, so the result always satisfies
   the validation in [Fault.apply].  A draw where all nodes land in one class is
   an effective heal — rare and harmless. *)
let random_partition rng n_nodes =
  let k = 2 + Rng.int rng 2 in
  let label = Array.init n_nodes (fun _ -> Rng.int rng k) in
  let classes =
    List.init k (fun c -> List.filteri (fun node _ -> Int.equal label.(node) c) (List.init n_nodes (fun i -> i)))
  in
  Fault.Partition (List.filter (fun cls -> cls <> []) classes)

(* Model swaps: a loss burst, a latency spike, or restoration of the
   base model.  drop_prob is quantized to ppm so the step survives the
   JSON round-trip unchanged. *)
let random_model rng =
  match Rng.int rng 3 with
  | 0 -> Fault.Set_model (Model.lossy (float_of_int (20_000 + Rng.int rng 230_000) /. 1_000_000.))
  | 1 ->
      let factor = 5 + Rng.int rng 16 in
      Fault.Set_model { Model.default with Model.link_base = Model.default.Model.link_base * factor }
  | _ -> Fault.Set_model Model.default

let generate ~seed ~mode profile =
  let rng = Rng.create ~seed:((seed * 2) + 0x633d) in
  let n_servers = n_servers_of_mode mode in
  let n_nodes = profile.n_app + n_servers in
  let count = profile.steps_lo + Rng.int rng (profile.steps_hi - profile.steps_lo + 1) in
  let times =
    List.sort Time.compare (List.init count (fun _ -> Time.add profile.warmup (Rng.int rng profile.window)))
  in
  (* Walk the sorted times tracking the crashed set, so Crash/Recover
     draws stay meaningful (never crash more than half the universe at
     once; recovery targets an actually-crashed node when one exists). *)
  let crashed = ref [] in
  let pick_step () =
    let roll = Rng.int rng 100 in
    if roll < 25 then random_partition rng n_nodes
    else if roll < 40 then Fault.Heal
    else if roll < 65 then begin
      let alive = List.filter (fun n -> not (List.mem n !crashed)) (List.init n_nodes (fun i -> i)) in
      if List.length !crashed >= n_nodes / 2 || alive = [] then Fault.Heal
      else begin
        let victim = Rng.pick rng alive in
        crashed := victim :: !crashed;
        Fault.Crash victim
      end
    end
    else if roll < 80 then
      match !crashed with
      | [] -> random_partition rng n_nodes
      | nodes ->
          let back = Rng.pick rng nodes in
          crashed := List.filter (fun n -> n <> back) !crashed;
          Fault.Recover back
    else random_model rng
  in
  let script = List.map (fun time -> (time, pick_step ())) times in
  (* Cleanup tail: base model back, everyone recovered, then either a
     full heal or — one schedule in three — a final two-way partition
     that keeps a naming replica on each side (the paper's placement
     assumption), so the oracle's per-component judgement is exercised
     on genuinely partitioned end states. *)
  let t0 = Time.add profile.warmup profile.window in
  let settle_topology =
    if Rng.int rng 3 = 0 && profile.n_app >= 2 && n_servers >= 2 then begin
      let cut = 1 + Rng.int rng (profile.n_app - 1) in
      let left = List.init cut (fun i -> i) @ [ profile.n_app ] in
      let right = List.init (profile.n_app - cut) (fun i -> cut + i) @ [ profile.n_app + 1 ] in
      Fault.Partition [ left; right ]
    end
    else Fault.Heal
  in
  let tail =
    (t0, Fault.Set_model Model.default)
    :: List.init n_nodes (fun node -> (Time.add t0 (Time.ms (100 * (node + 1))), Fault.Recover node))
    @ [ (Time.add t0 (Time.ms (100 * (n_nodes + 2))), settle_topology) ]
  in
  { seed; mode; profile; script; tail }

(* ------------------------------------------------------------------ *)
(* Convergence oracle                                                  *)
(* ------------------------------------------------------------------ *)

(* Per component, every holder of a view of the same HWG must hold the
   same view, and that view's membership must be exactly the holders —
   a survivor remembering an unreachable or departed member has not
   finished its view change. *)
let check_hwg_agreement stack =
  let failures = ref [] in
  List.iter
    (fun component ->
      let gids =
        List.sort_uniq Gid.compare
          (List.concat_map (fun node -> Hwg.groups (Service.hwg_service stack.Stack.services.(node))) component)
      in
      List.iter
        (fun gid ->
          let holders =
            List.filter_map
              (fun node ->
                match Hwg.view_of (Service.hwg_service stack.Stack.services.(node)) gid with
                | Some view -> Some (node, view)
                | None -> None)
              component
          in
          match Agreement.holders_agree holders with
          | Agreement.Agreed -> ()
          | Agreement.Divergent ->
              failures :=
                (* plwg-lint: allow gid-string-boundary — oracle failure text, cold path *)
                Printf.sprintf "hwg %s: divergent views inside one component" (Gid.to_string gid) :: !failures
          | Agreement.Members_differ members ->
              failures :=
                (* plwg-lint: allow gid-string-boundary — oracle failure text, cold path *)
                Printf.sprintf "hwg %s: view members [%s] <> holders [%s]" (Gid.to_string gid)
                  (String.concat "," (List.map string_of_int members))
                  (String.concat "," (List.map string_of_int (List.map fst holders)))
                :: !failures)
        gids)
    (Agreement.components (Sim_rt.topology stack.Stack.engine) ~among:stack.Stack.app_nodes);
  List.rev !failures

(* Naming databases of replicas sharing a component must agree on the
   live entries of every LWG (anti-entropy had the whole settle tail to
   run), and none may still advertise a conflict: an outstanding
   MULTIPLE-MAPPINGS means reconciliation never completed. *)
let check_naming stack =
  let topology = Sim_rt.topology stack.Stack.engine in
  let failures = ref [] in
  let live_servers =
    List.filter (fun server -> Topology.is_alive topology (Server.node server)) stack.Stack.ns_servers
  in
  List.iter
    (fun server ->
      List.iter
        (fun lwg ->
          failures :=
            (* plwg-lint: allow gid-string-boundary — oracle failure text, cold path *)
            Printf.sprintf "server %d: unresolved MULTIPLE-MAPPINGS for %s" (Server.node server) (Gid.to_string lwg)
            :: !failures)
        (Db.conflicts (Server.db server)))
    live_servers;
  (* plwg-lint: allow gid-string-boundary — oracle-only comparison keys; interned, end-of-run *)
  let entry_key e = Printf.sprintf "%s@%s->%s" (Gid.to_string e.Db.lwg) (View_id.to_string e.Db.lwg_view) (Gid.to_string e.Db.hwg) in
  let live_entries server lwg = List.sort String.compare (List.map entry_key (Db.read (Server.db server) lwg)) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if
            Server.node a < Server.node b
            && Topology.reachable topology (Server.node a) (Server.node b)
          then
            let lwgs = List.sort_uniq Gid.compare (Db.lwgs (Server.db a) @ Db.lwgs (Server.db b)) in
            List.iter
              (fun lwg ->
                if not (List.equal String.equal (live_entries a lwg) (live_entries b lwg)) then
                  failures :=
                    Printf.sprintf "servers %d/%d: databases disagree on %s" (Server.node a) (Server.node b)
                      (* plwg-lint: allow gid-string-boundary — oracle failure text, cold path *)
                      (Gid.to_string lwg)
                    :: !failures)
              lwgs)
        live_servers)
    live_servers;
  List.rev !failures

let check_transport_drained stack =
  List.filter_map
    (fun node ->
      let backlog = Transport.in_flight (Transport.endpoint stack.Stack.transport node) in
      if backlog > 0 then Some (Printf.sprintf "transport backlog not drained: node %d holds %d unacked" node backlog)
      else None)
    (stack.Stack.app_nodes @ stack.Stack.server_nodes)

let oracle stack ~lwgs =
  let prefix tag = List.map (fun v -> tag ^ ": " ^ v) in
  let convergence =
    List.filter_map
      (fun lwg ->
        if Stack.lwg_converged stack lwg then None
          (* plwg-lint: allow gid-string-boundary — oracle failure text, cold path *)
        else Some (Printf.sprintf "lwg %s not converged" (Gid.to_string lwg)))
      lwgs
  in
  let n_nodes = List.length stack.Stack.app_nodes + List.length stack.Stack.server_nodes in
  (* Reconcile order is deliberately not checked: random schedules merge
     in whatever order traffic dictates.  Flush pairing runs strict —
     the settle tail recovers every node, so even a coordinator crashed
     mid-flush must close its change on the recovery path.  A truncated
     trace is a failure: the checks would otherwise pass on what the
     ring threw away. *)
  let trace_failures =
    Trace_check.check_sink
      (fun entries ->
        Trace_check.check_flush_pairing ~allow_open:false entries
        @ Trace_check.check_no_cross_partition_delivery ~n_nodes entries
        @ Trace_check.check_vs entries)
      stack.Stack.obs.Plwg_obs.sink
  in
  convergence
  @ check_hwg_agreement stack
  @ check_naming stack
  @ check_transport_drained stack
  @ prefix "trace" trace_failures

(* ------------------------------------------------------------------ *)
(* Running one schedule                                                *)
(* ------------------------------------------------------------------ *)

type verdict = { run : int; schedule : schedule; failures : string list }

let chaos_lwg i = { Gid.seq = 4_000_000 + i; origin = 0 }

let trace_capacity = 1 lsl 20

let execute ?metrics ?on_trace ~run schedule =
  let profile = schedule.profile in
  let metrics = match metrics with Some m -> m | None -> Plwg_obs.Metrics.create () in
  let obs = { Plwg_obs.sink = Plwg_obs.Sink.create ~capacity:trace_capacity (); metrics } in
  let stack = Stack.create ~obs ~seed:schedule.seed ~mode:schedule.mode ~n_app:profile.n_app () in
  let engine = stack.Stack.engine in
  Sim_rt.trace engine (fun () ->
      Plwg_obs.Event.Chaos_schedule
        { run; seed = schedule.seed; steps = List.length schedule.script; mode = mode_to_string schedule.mode });
  let lwgs = List.init profile.n_lwgs chaos_lwg in
  Array.iter (fun service -> List.iter (fun lwg -> Service.join service lwg) lwgs) stack.Stack.services;
  Fault.install engine (schedule.script @ schedule.tail);
  (* Application traffic keeps the data paths hot while faults land; it
     stops at the cleanup point so the settle tail can actually drain
     the transport backlogs the oracle inspects. *)
  let traffic_until = Time.add profile.warmup profile.window in
  let counter = ref 0 in
  let topology = Sim_rt.topology engine in
  let rec traffic () =
    if Time.compare (Sim_rt.now engine) traffic_until < 0 then begin
      let sender = !counter mod profile.n_app in
      incr counter;
      if Topology.is_alive topology sender then
        List.iter
          (fun lwg ->
            match Service.view_of stack.Stack.services.(sender) lwg with
            | Some _ -> Service.send stack.Stack.services.(sender) lwg (Chaos_app !counter)
            | None -> ())
          lwgs;
      let (_ : Sim_rt.cancel) = Sim_rt.after engine profile.traffic_period traffic in
      ()
    end
  in
  let (_ : Sim_rt.cancel) = Sim_rt.after engine (Time.ms 500) traffic in
  Stack.run stack (profile.warmup + profile.window + Time.sec 1 + profile.settle);
  (match on_trace with Some f -> f (Plwg_obs.Sink.to_list obs.Plwg_obs.sink) | None -> ());
  let failures = oracle stack ~lwgs in
  Sim_rt.trace engine (fun () ->
      Plwg_obs.Event.Chaos_verdict
        {
          run;
          seed = schedule.seed;
          verdict = (if failures = [] then "pass" else "fail");
          detail = (match failures with [] -> "" | first :: _ -> first);
        });
  { run; schedule; failures }

(* ------------------------------------------------------------------ *)
(* Determinism check                                                   *)
(* ------------------------------------------------------------------ *)

(* The whole stack must be a pure function of the schedule.  Re-running
   a schedule and byte-comparing the serialized traces catches any
   nondeterminism a change to lib/ might introduce (hash-order
   iteration, wall-clock reads, stray global RNG state) â exactly the
   failure classes plwg-lint patrols statically. *)

let trace_lines entries =
  List.map (fun e -> Plwg_obs.Json.to_string (Plwg_obs.Event.to_json e)) entries

let diff_traces ~first ~second =
  if List.equal String.equal first second then []
  else
    let show = function [] -> "<end of trace>" | line :: _ -> line in
    let rec scan i a b =
      match (a, b) with
      | x :: xs, y :: ys when String.equal x y -> scan (i + 1) xs ys
      | a, b -> [ Printf.sprintf "determinism: replay diverges at trace line %d: %s vs %s" i (show a) (show b) ]
    in
    scan 0 first second

let run_schedule ?metrics ?on_trace ?(check_determinism = false) ?(run = 0) schedule =
  if not check_determinism then execute ?metrics ?on_trace ~run schedule
  else begin
    let first = ref [] and second = ref [] in
    let verdict =
      execute ?metrics ~run schedule ~on_trace:(fun entries ->
          first := trace_lines entries;
          Option.iter (fun f -> f entries) on_trace)
    in
    (* silent replay: fresh metrics so the caller's registry is not
       double-counted, same [run] so the traces line up *)
    let (_ : verdict) = execute ~run schedule ~on_trace:(fun entries -> second := trace_lines entries) in
    { verdict with failures = verdict.failures @ diff_traces ~first:!first ~second:!second }
  end

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

type report = { runs : int; verdicts : verdict list (* chronological *) }

let failed report = List.filter (fun v -> v.failures <> []) report.verdicts

let mode_rotation =
  [| Stack.Dynamic; Stack.Static; Stack.Direct |]
[@@shared_cell "read-only rotation table: written nowhere after initialisation"]

let campaign ?metrics ?on_trace ?(on_verdict = fun _ -> ()) ?(check_determinism = false) ~seed ~runs profile =
  let verdicts = ref [] in
  for i = 0 to runs - 1 do
    let mode = mode_rotation.(i mod Array.length mode_rotation) in
    let schedule = generate ~seed:(seed + (7919 * i)) ~mode profile in
    let verdict = run_schedule ?metrics ?on_trace ~check_determinism ~run:i schedule in
    on_verdict verdict;
    verdicts := verdict :: !verdicts
  done;
  { runs; verdicts = List.rev !verdicts }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Classic ddmin over the script steps: try ever-finer complements,
   keeping any subset that still fails.  [fails] re-runs the whole
   simulation per trial, so the loop is geared to the small schedules
   the generator emits (<= ~16 steps). *)
let ddmin fails steps =
  let rec go steps granularity =
    let len = List.length steps in
    if len <= 1 then steps
    else begin
      let chunk = max 1 (len / granularity) in
      let n_chunks = (len + chunk - 1) / chunk in
      let rec try_complement i =
        if i >= n_chunks then None
        else
          let complement = List.filteri (fun j _ -> j < i * chunk || j >= (i + 1) * chunk) steps in
          if complement <> [] && fails complement then Some complement else try_complement (i + 1)
      in
      match try_complement 0 with
      | Some smaller -> go smaller (max 2 (granularity - 1))
      | None -> if chunk = 1 then steps else go steps (min len (2 * granularity))
    end
  in
  go steps 2

let replace_nth steps i entry = List.mapi (fun j e -> if j = i then entry else e) steps

(* Fewer partition classes: repeatedly merge the second class into the
   first while the failure is preserved. *)
let shrink_partitions fails steps =
  let steps = ref steps in
  List.iteri
    (fun i (time, step) ->
      match step with
      | Fault.Partition classes ->
          let rec merge classes =
            match classes with
            | first :: second :: rest ->
                let candidate = replace_nth !steps i (time, Fault.Partition ((first @ second) :: rest)) in
                if fails candidate then begin
                  steps := candidate;
                  merge ((first @ second) :: rest)
                end
            | _ -> ()
          in
          merge classes
      | _ -> ())
    !steps;
  !steps

(* Round step times down to coarser units (whole seconds, then 100ms)
   when the failure does not depend on the exact instant. *)
let shrink_times fails steps =
  let round_to unit time = time / unit * unit in
  let steps = ref steps in
  List.iter
    (fun unit ->
      List.iteri
        (fun i (time, step) ->
          let rounded = round_to unit time in
          if rounded <> time then begin
            let candidate = replace_nth !steps i (rounded, step) in
            if fails candidate then steps := candidate
          end)
        !steps)
    [ Time.sec 1; Time.ms 100 ];
  !steps

let shrink ~fails schedule =
  let fails_script script = fails { schedule with script } in
  let rec fixpoint script passes =
    let shrunk = ddmin fails_script script in
    let shrunk = shrink_partitions fails_script shrunk in
    let shrunk = shrink_times fails_script shrunk in
    if shrunk = script || passes <= 1 then shrunk else fixpoint shrunk (passes - 1)
  in
  { schedule with script = fixpoint schedule.script 3 }

(* ------------------------------------------------------------------ *)
(* Repro artifacts                                                     *)
(* ------------------------------------------------------------------ *)

module Json = Plwg_obs.Json

let repro_schema = "plwg-chaos-repro/1"

let to_repro_json schedule =
  Json.Obj
    [
      ("schema", Json.Str repro_schema);
      ("seed", Json.Int schedule.seed);
      ("mode", Json.Str (mode_to_string schedule.mode));
      ("profile", Json.Str schedule.profile.name);
      ("script", Fault.script_to_json schedule.script);
      ("tail", Fault.script_to_json schedule.tail);
    ]

let of_repro_json json =
  let ( let* ) r f = Result.bind r f in
  let* () =
    match Json.to_str (Json.member "schema" json) with
    | s when s = repro_schema -> Ok ()
    | other -> Error (Printf.sprintf "unknown repro schema %S (expected %s)" other repro_schema)
    | exception _ -> Error "missing \"schema\" field"
  in
  let* mode = mode_of_string (Json.to_str (Json.member "mode" json)) in
  let* profile = profile_of_string (Json.to_str (Json.member "profile" json)) in
  match
    ( Json.to_int (Json.member "seed" json),
      Fault.script_of_json (Json.member "script" json),
      Fault.script_of_json (Json.member "tail" json) )
  with
  | seed, script, tail -> Ok { seed; mode; profile; script; tail }
  | exception e -> Error (Printexc.to_string e)
