(* Typed trace events.  This module sits below the simulator in the
   dependency order, so node ids, timestamps and group ids appear here
   as plain [int]s / [string]s rather than as their abstract types. *)

type reconcile_step =
  | Global_discovery  (** step 1: naming service reports MULTIPLE-MAPPINGS *)
  | Mapping_reconciliation  (** step 2: coordinator switches to the highest HWG *)
  | Local_discovery  (** step 3: peers exchange concurrent views on the carrier *)
  | Merge_views  (** step 4: concurrent views fuse in one flush *)

let reconcile_step_to_string = function
  | Global_discovery -> "global-discovery"
  | Mapping_reconciliation -> "mapping-reconciliation"
  | Local_discovery -> "local-discovery"
  | Merge_views -> "merge-views"

let reconcile_step_of_string = function
  | "global-discovery" -> Global_discovery
  | "mapping-reconciliation" -> Mapping_reconciliation
  | "local-discovery" -> Local_discovery
  | "merge-views" -> Merge_views
  | other -> invalid_arg ("Event.reconcile_step_of_string: " ^ other)

type layer = Hwg | Lwg

let layer_to_string = function Hwg -> "hwg" | Lwg -> "lwg"

let layer_of_string = function
  | "hwg" -> Hwg
  | "lwg" -> Lwg
  | other -> invalid_arg ("Event.layer_of_string: " ^ other)

type t =
  | Msg_delivered of { src : int; dst : int; kind : string; latency_us : int }
  | Msg_dropped of { src : int; dst : int; kind : string; reason : string }
  | View_installed of { layer : layer; node : int; group : string; view_seq : int; view_coord : int; members : int list }
  | Group_delivered of {
      layer : layer; node : int; group : string; view_seq : int; view_coord : int; origin : int; local_id : int }
  | Group_left of { layer : layer; node : int; group : string }
  | Flush_begin of { node : int; group : string; epoch : int }
  | Flush_end of { node : int; group : string; epoch : int; outcome : string }
  | Ns_request of { node : int; req : int; op : string; server : int }
  | Ns_reply of { node : int; req : int; rtt_us : int }
  | Ns_retry of { node : int; req : int; attempt : int; server : int }
  | Ns_give_up of { node : int; req : int; attempts : int }
  | Ns_conflict of { server : int; lwg : string }
  | Policy_decision of { node : int; rule : string; subject : string; decision : string }
  | Reconcile_step of { node : int; step : reconcile_step; group : string }
  | Peer_status of { node : int; peer : int; reachable : bool }
  | Partition_changed of { classes : int list list }
  | Healed
  | Node_crashed of { node : int }
  | Node_recovered of { node : int }
  | Model_changed of { link_base_us : int; link_jitter_us : int; drop_ppm : int; proc_us : int }
  | Fault_past_step of { step : string; scheduled_us : int }
  | Chaos_schedule of { run : int; seed : int; steps : int; mode : string }
  | Chaos_verdict of { run : int; seed : int; verdict : string; detail : string }

type entry = { at_us : int; event : t }

(* The leading identifier before the first '(' of a payload rendering,
   e.g. "seg" for "seg(c3,#12,hw-data(...))".  Shared by the trace
   checker and the per-phase breakdowns. *)
let kind_prefix kind =
  match String.index_opt kind '(' with Some i -> String.sub kind 0 i | None -> kind

let type_name = function
  | Msg_delivered _ -> "msg-delivered"
  | Msg_dropped _ -> "msg-dropped"
  | View_installed _ -> "view-installed"
  | Group_delivered _ -> "group-delivered"
  | Group_left _ -> "group-left"
  | Flush_begin _ -> "flush-begin"
  | Flush_end _ -> "flush-end"
  | Ns_request _ -> "ns-request"
  | Ns_reply _ -> "ns-reply"
  | Ns_retry _ -> "ns-retry"
  | Ns_give_up _ -> "ns-give-up"
  | Ns_conflict _ -> "ns-conflict"
  | Policy_decision _ -> "policy-decision"
  | Reconcile_step _ -> "reconcile-step"
  | Peer_status _ -> "peer-status"
  | Partition_changed _ -> "partition-changed"
  | Healed -> "healed"
  | Node_crashed _ -> "node-crashed"
  | Node_recovered _ -> "node-recovered"
  | Model_changed _ -> "model-changed"
  | Fault_past_step _ -> "fault-past-step"
  | Chaos_schedule _ -> "chaos-schedule"
  | Chaos_verdict _ -> "chaos-verdict"

(* fields shared by the group-layer events *)
let member_fields layer node group =
  [ ("layer", Json.Str (layer_to_string layer)); ("node", Json.Int node); ("group", Json.Str group) ]

let view_fields view_seq view_coord = [ ("view_seq", Json.Int view_seq); ("view_coord", Json.Int view_coord) ]

let to_json { at_us; event } =
  let base = [ ("at_us", Json.Int at_us); ("type", Json.Str (type_name event)) ] in
  let fields =
    match event with
    | Msg_delivered { src; dst; kind; latency_us } ->
        [ ("src", Json.Int src); ("dst", Json.Int dst); ("kind", Json.Str kind); ("latency_us", Json.Int latency_us) ]
    | Msg_dropped { src; dst; kind; reason } ->
        [ ("src", Json.Int src); ("dst", Json.Int dst); ("kind", Json.Str kind); ("reason", Json.Str reason) ]
    | View_installed { layer; node; group; view_seq; view_coord; members } ->
        member_fields layer node group @ view_fields view_seq view_coord
        @ [ ("members", Json.List (List.map (fun m -> Json.Int m) members)) ]
    | Group_delivered { layer; node; group; view_seq; view_coord; origin; local_id } ->
        member_fields layer node group @ view_fields view_seq view_coord
        @ [ ("origin", Json.Int origin); ("local_id", Json.Int local_id) ]
    | Group_left { layer; node; group } -> member_fields layer node group
    | Flush_begin { node; group; epoch } ->
        [ ("node", Json.Int node); ("group", Json.Str group); ("epoch", Json.Int epoch) ]
    | Flush_end { node; group; epoch; outcome } ->
        [ ("node", Json.Int node); ("group", Json.Str group); ("epoch", Json.Int epoch); ("outcome", Json.Str outcome) ]
    | Ns_request { node; req; op; server } ->
        [ ("node", Json.Int node); ("req", Json.Int req); ("op", Json.Str op); ("server", Json.Int server) ]
    | Ns_reply { node; req; rtt_us } -> [ ("node", Json.Int node); ("req", Json.Int req); ("rtt_us", Json.Int rtt_us) ]
    | Ns_retry { node; req; attempt; server } ->
        [ ("node", Json.Int node); ("req", Json.Int req); ("attempt", Json.Int attempt); ("server", Json.Int server) ]
    | Ns_give_up { node; req; attempts } ->
        [ ("node", Json.Int node); ("req", Json.Int req); ("attempts", Json.Int attempts) ]
    | Ns_conflict { server; lwg } -> [ ("server", Json.Int server); ("lwg", Json.Str lwg) ]
    | Policy_decision { node; rule; subject; decision } ->
        [
          ("node", Json.Int node); ("rule", Json.Str rule); ("subject", Json.Str subject); ("decision", Json.Str decision);
        ]
    | Reconcile_step { node; step; group } ->
        [ ("node", Json.Int node); ("step", Json.Str (reconcile_step_to_string step)); ("group", Json.Str group) ]
    | Peer_status { node; peer; reachable } ->
        [ ("node", Json.Int node); ("peer", Json.Int peer); ("reachable", Json.Bool reachable) ]
    | Partition_changed { classes } ->
        [ ("classes", Json.List (List.map (fun cls -> Json.List (List.map (fun m -> Json.Int m) cls)) classes)) ]
    | Healed -> []
    | Node_crashed { node } -> [ ("node", Json.Int node) ]
    | Node_recovered { node } -> [ ("node", Json.Int node) ]
    | Model_changed { link_base_us; link_jitter_us; drop_ppm; proc_us } ->
        [
          ("link_base_us", Json.Int link_base_us);
          ("link_jitter_us", Json.Int link_jitter_us);
          ("drop_ppm", Json.Int drop_ppm);
          ("proc_us", Json.Int proc_us);
        ]
    | Fault_past_step { step; scheduled_us } -> [ ("step", Json.Str step); ("scheduled_us", Json.Int scheduled_us) ]
    | Chaos_schedule { run; seed; steps; mode } ->
        [ ("run", Json.Int run); ("seed", Json.Int seed); ("steps", Json.Int steps); ("mode", Json.Str mode) ]
    | Chaos_verdict { run; seed; verdict; detail } ->
        [ ("run", Json.Int run); ("seed", Json.Int seed); ("verdict", Json.Str verdict); ("detail", Json.Str detail) ]
  in
  Json.Obj (base @ fields)

let of_json json =
  let int key = Json.to_int (Json.member key json) in
  let str key = Json.to_str (Json.member key json) in
  let at_us = int "at_us" in
  let layer () = layer_of_string (str "layer") in
  let event =
    match str "type" with
    | "msg-delivered" ->
        Msg_delivered { src = int "src"; dst = int "dst"; kind = str "kind"; latency_us = int "latency_us" }
    | "msg-dropped" -> Msg_dropped { src = int "src"; dst = int "dst"; kind = str "kind"; reason = str "reason" }
    | "view-installed" ->
        View_installed
          { layer = layer (); node = int "node"; group = str "group"; view_seq = int "view_seq";
            view_coord = int "view_coord"; members = List.map Json.to_int (Json.to_list (Json.member "members" json)) }
    | "group-delivered" ->
        Group_delivered
          { layer = layer (); node = int "node"; group = str "group"; view_seq = int "view_seq";
            view_coord = int "view_coord"; origin = int "origin"; local_id = int "local_id" }
    | "group-left" -> Group_left { layer = layer (); node = int "node"; group = str "group" }
    | "flush-begin" -> Flush_begin { node = int "node"; group = str "group"; epoch = int "epoch" }
    | "flush-end" -> Flush_end { node = int "node"; group = str "group"; epoch = int "epoch"; outcome = str "outcome" }
    | "ns-request" -> Ns_request { node = int "node"; req = int "req"; op = str "op"; server = int "server" }
    | "ns-reply" -> Ns_reply { node = int "node"; req = int "req"; rtt_us = int "rtt_us" }
    | "ns-retry" -> Ns_retry { node = int "node"; req = int "req"; attempt = int "attempt"; server = int "server" }
    | "ns-give-up" -> Ns_give_up { node = int "node"; req = int "req"; attempts = int "attempts" }
    | "ns-conflict" -> Ns_conflict { server = int "server"; lwg = str "lwg" }
    | "policy-decision" ->
        Policy_decision { node = int "node"; rule = str "rule"; subject = str "subject"; decision = str "decision" }
    | "reconcile-step" ->
        Reconcile_step { node = int "node"; step = reconcile_step_of_string (str "step"); group = str "group" }
    | "peer-status" ->
        Peer_status { node = int "node"; peer = int "peer"; reachable = Json.to_bool (Json.member "reachable" json) }
    | "partition-changed" ->
        Partition_changed
          {
            classes =
              List.map (fun cls -> List.map Json.to_int (Json.to_list cls)) (Json.to_list (Json.member "classes" json));
          }
    | "healed" -> Healed
    | "node-crashed" -> Node_crashed { node = int "node" }
    | "node-recovered" -> Node_recovered { node = int "node" }
    | "model-changed" ->
        Model_changed
          {
            link_base_us = int "link_base_us";
            link_jitter_us = int "link_jitter_us";
            drop_ppm = int "drop_ppm";
            proc_us = int "proc_us";
          }
    | "fault-past-step" -> Fault_past_step { step = str "step"; scheduled_us = int "scheduled_us" }
    | "chaos-schedule" -> Chaos_schedule { run = int "run"; seed = int "seed"; steps = int "steps"; mode = str "mode" }
    | "chaos-verdict" ->
        Chaos_verdict { run = int "run"; seed = int "seed"; verdict = str "verdict"; detail = str "detail" }
    | other -> invalid_arg ("Event.of_json: unknown type " ^ other)
  in
  { at_us; event }
