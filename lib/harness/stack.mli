(** Full-stack cluster: application nodes running the light-weight group
    service (plus detector + transport), and dedicated naming-service
    replica nodes.  The standard fixture for LWG tests, examples and the
    paper's experiments.

    {!wire} assembles the protocol stack on any runtime backend;
    {!create} is the sim fixture (engine + wiring + driver surface),
    always traced: {!check_vs} replays its [Plwg_obs] stream. *)

open Plwg_sim

type service_mode = Direct | Static | Dynamic

type parts = {
  p_transport : Plwg_transport.Transport.t;
  p_detectors : Plwg_detector.Detector.t array;  (** indexed by node id *)
  p_services : Plwg.Service.t array;  (** indexed by app node id *)
  p_ns_servers : Plwg_naming.Server.t list;
  p_ns_clients : Plwg_naming.Client.t array;
  p_app_nodes : Node_id.t list;
  p_server_nodes : Node_id.t list;
}
(** The protocol stack above the runtime, backend-agnostic. *)

val wire :
  ?config:Plwg.Service.config ->
  ?ns_config:Plwg_naming.Server.config ->
  ?callbacks:(Node_id.t -> Plwg.Service.callbacks) ->
  mode:service_mode ->
  n_app:int ->
  Plwg_runtime.Rt.t ->
  parts
(** Wire the full stack onto a runtime.  App nodes are [0 .. n_app-1];
    any remaining runtime nodes become naming replicas (required —
    and only used — in [Dynamic] mode). *)

type t = {
  engine : Plwg_runtime.Sim_rt.t;
  obs : Plwg_obs.t;  (** trace sink + metrics *)
  transport : Plwg_transport.Transport.t;
  detectors : Plwg_detector.Detector.t array;  (** indexed by node id *)
  services : Plwg.Service.t array;  (** indexed by app node id, [0 .. n_app-1] *)
  ns_servers : Plwg_naming.Server.t list;
  ns_clients : Plwg_naming.Client.t array;  (** per app node (Dynamic mode) *)
  app_nodes : Node_id.t list;
  server_nodes : Node_id.t list;
}

val n_servers : int
(** Naming replicas {!create} adds in [Dynamic] mode. *)

val static_hwg : Plwg_vsync.Types.Gid.t [@@test_support "tests check the static mode's mapping"]
(** The designated global HWG used by [Static] mode. *)

val create :
  ?obs:Plwg_obs.t ->
  ?model:Model.t ->
  ?seed:int ->
  ?config:Plwg.Service.config ->
  ?ns_config:Plwg_naming.Server.config ->
  ?callbacks:(Node_id.t -> Plwg.Service.callbacks) ->
  mode:service_mode ->
  n_app:int ->
  unit ->
  t
(** Node layout: app nodes are [0 .. n_app-1]; naming replicas (Dynamic
    mode only, {!n_servers} of them) occupy the next ids.
    [obs] defaults to a fresh {!Plwg_obs.create}. *)

val run : t -> Time.span -> unit

val lwg_converged : t -> Plwg_vsync.Types.Gid.t -> bool
(** Every alive app node that is a member of the LWG shares one view per
    connectivity class, the view lists exactly those members, and all of
    them map the LWG onto the same HWG. *)

val check_vs : t -> string list
(** {!Trace_check.check_vs} over the stack's sink (both layers). *)
