(** Assembles a simulated cluster: engine, transport fabric, one failure
    detector and one HWG service per node, traced into one [Plwg_obs]
    sink that the virtual-synchrony oracle ({!check_vs}) replays.
    Used by tests, examples and the benchmark harness.

    {!wire} assembles the per-node services on any runtime backend;
    {!create} is the sim fixture. *)

open Plwg_sim

type parts = {
  p_transport : Plwg_transport.Transport.t;
  p_detectors : Plwg_detector.Detector.t array;
  p_hwgs : Plwg_vsync.Hwg.t array;
}
(** The HWG stack above the runtime, backend-agnostic. *)

val wire :
  ?callbacks:(Node_id.t -> Plwg_vsync.Hwg.callbacks) ->
  Plwg_runtime.Rt.t ->
  parts [@@test_support "tests wire the HWG stack over the domains backend"]
(** One detector and one HWG service per runtime node. *)

type t = {
  engine : Plwg_runtime.Sim_rt.t;
  obs : Plwg_obs.t;  (** trace sink + metrics; [create]'s [obs] defaults to a fresh one *)
  transport : Plwg_transport.Transport.t;
  detectors : Plwg_detector.Detector.t array;
  hwgs : Plwg_vsync.Hwg.t array;
}

val create :
  ?obs:Plwg_obs.t ->
  ?model:Model.t ->
  ?callbacks:(Node_id.t -> Plwg_vsync.Hwg.callbacks) ->
  seed:int ->
  n_nodes:int ->
  unit ->
  t

val run : t -> Time.span -> unit
(** Advance simulated time by the given span. *)

val converged : t -> Plwg_vsync.Types.Gid.t -> bool [@@test_support "HWG tests wait on it"]
(** True when every alive member of the group reports the same view,
    every view member is a member, and no two concurrent views persist
    among alive nodes in the same connectivity class. *)
