(** The partitionable light-weight group service — the paper's core
    contribution.

    One [t] runs per node.  User-level groups (LWGs) expose the same
    virtually synchronous interface as heavy-weight groups (Table 1)
    but are multiplexed onto a small pool of HWGs:

    - {b Dynamic} mode is the paper's service: mappings are resolved
      through the naming service, re-evaluated periodically with the
      share / interference / shrink rules (Figure 1), changed at run
      time by the switch protocol, and reconciled across partitions by
      the four-step procedure of Section 6 (naming callbacks → switch
      to the highest HWG id → local peer discovery → merge-views).
    - {b Static} mode maps every LWG onto one global HWG (the
      comparison baseline that maximises sharing and interference).
    - {b Direct} mode bypasses the service: each user group runs on its
      own dedicated HWG (the "no LWG service" baseline).

    LWG views carry their predecessor ids, so the naming service can
    garbage-collect superseded mappings (Table 4).  LWG installs,
    deliveries and leaves are traced at layer [Lwg] ([Hwg] in [Direct]
    mode, where user groups are carriers) for [Plwg_harness.Trace_check]. *)

open Plwg_sim
open Plwg_vsync.Types

type mode =
  | Direct
  | Static of Gid.t  (** the designated global HWG *)
  | Dynamic

type config = {
  params : Policy.params;  (** the Figure 1 [k_m]/[k_c] rules *)
  policy_period : Time.span;  (** how often the Figure 1 rules run (paper: 1 min) *)
}

val default_config : config
(** {!Policy.default_params}, rules run every second. *)

type callbacks = {
  on_view : Gid.t -> View.t -> unit;
  on_data : Gid.t -> src:Node_id.t -> Payload.t -> unit;
}

val no_callbacks : callbacks

type t

val create :
  ?config:config ->
  mode:mode ->
  transport:Plwg_transport.Transport.t ->
  detector:Plwg_detector.Detector.t ->
  ?ns:Plwg_naming.Client.t ->
  callbacks ->
  Node_id.t ->
  t
(** [ns] is required in [Dynamic] mode (mappings live in the naming
    service) and unused otherwise.
    @raise Invalid_argument if [Dynamic] without [ns]. *)

val fresh_gid : t -> Gid.t
(** Mint a LWG identifier. *)

val join : ?ordering:ordering -> t -> Gid.t -> unit
(** Join (creating if needed) a light-weight group.  Completion is
    signalled by the first [on_view] that contains this node.
    [ordering] selects the delivery discipline among this LWG's members:
    [Fifo] (default) or [Causal]; [Total] is only offered by the HWG
    layer ([Direct] mode).
    @raise Invalid_argument for [Total] in Static/Dynamic modes. *)

val leave : t -> Gid.t -> unit

val send : t -> Gid.t -> Payload.t -> unit
(** Virtually synchronous multicast on the LWG.  Buffered while a flush
    or switch is in progress. *)

val view_of : t -> Gid.t -> View.t option
(** Current LWG view. *)

val mapping_of : t -> Gid.t -> Gid.t option
(** The HWG this node currently maps the LWG onto. *)

val hwg_service : t -> Plwg_vsync.Hwg.t

val switch_count : t -> int
(** Switch protocol executions initiated by this node (ablation metric). *)

val merge_count : t -> int [@@test_support "application API: merges this node took part in"]
(** LWG view merges computed at this node (ablation metric). *)

type state_callbacks = {
  capture : Gid.t -> Payload.t;
      (** Called at the coordinator, at the flush synchronisation point,
          when a view with new members installs: the application state
          to ship to the joiners. *)
  install_state : Gid.t -> src:Node_id.t -> Payload.t -> unit;
      (** Called at a joiner before any post-join message delivery. *)
}

val enable_state_transfer : t -> state_callbacks -> unit
  [@@test_support "application API: opt-in state transfer on merge"]
(** Turn on application state transfer for every LWG of this service:
    when a join completes, the coordinator captures the group state and
    the joiner installs it before delivering any message sent in the new
    view.  Best-effort across failures: if the coordinator dies between
    the view and the state message, the joiner proceeds without state
    after a grace period (the next view change retries).  Partition
    merges do not transfer state (members on both sides already hold
    one; reconciling divergent application state is application policy,
    as in the paper). *)

val request_switch : t -> Gid.t -> Gid.t -> unit
(** Run the switch protocol, re-homing the LWG onto the given HWG.
    Only honoured when this node coordinates the LWG view and no flush
    is in progress.  Normal operation triggers switches from the
    policies and the reconciliation procedure; this entry point exists
    for tests and for scripted experiment scenarios. *)
