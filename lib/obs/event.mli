(** Typed trace events.  This module sits below the simulator in the
    dependency order, so node ids, timestamps and group ids appear here
    as plain [int]s / [string]s rather than as their abstract types. *)

type reconcile_step =
  | Global_discovery  (** step 1: naming service reports MULTIPLE-MAPPINGS *)
  | Mapping_reconciliation  (** step 2: coordinator switches to the highest HWG *)
  | Local_discovery  (** step 3: peers exchange concurrent views on the carrier *)
  | Merge_views  (** step 4: concurrent views fuse in one flush *)

val reconcile_step_to_string : reconcile_step -> string

(** The group layer an install, delivery or leave belongs to: the
    heavy-weight carrier groups or the light-weight groups mapped on
    them.  The two layers draw group ids independently, so the
    virtual-synchrony checks key every group by its layer too. *)
type layer = Hwg | Lwg

val layer_to_string : layer -> string

(** [View_installed], [Group_delivered] and [Group_left] are the
    virtual-synchrony oracle's input: a view id is its sequence number
    and coordinator, a message is its (origin, local id) pair. *)
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

(** A traced event stamped with simulated time (microseconds). *)
type entry = { at_us : int; event : t }

(** The leading identifier before the first '(' of a payload rendering,
    e.g. "seg" for "seg(c3,#12,hw-data(...))". *)
val kind_prefix : string -> string

val to_json : entry -> Json.t

(** Raises [Invalid_argument] on an unknown event type. *)
val of_json : Json.t -> entry
