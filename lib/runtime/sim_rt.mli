(** The deterministic simulator as a runtime backend — and the driver
    surface for sim-based experiments.

    [t] {e is} the sim engine ([Plwg_sim.Engine.t]); {!rt} packs it as
    a {!Rt.t} for the protocol stack.  Everything a driver (harness,
    bench, CLI, tests) needs — creation, clock advancement, stats,
    fault injection — is re-exported here, so no code outside [lib/sim]
    and [lib/runtime] ever names [Engine] (the [runtime-boundary] lint
    checks this).

    Fault injection goes through the validated {!Plwg_sim.Engine.apply_step},
    so a driver's ad-hoc [crash]/[set_partition] and a chaos campaign's
    scripted schedule take the same (traced) path. *)

open Plwg_sim

type t = Engine.t

val rt : t -> Rt.t
(** Pack the engine as a runtime for the protocol stack. *)

val create : ?obs:Plwg_obs.t -> ?model:Model.t -> seed:int -> n_nodes:int -> unit -> t

(** {1 Runtime surface} *)

type cancel = Rt.cancel

include Rt.S with type t := t

(** {1 Sim driver controls} *)

val topology : t -> Topology.t

val after : t -> Time.span -> (unit -> unit) -> cancel
(** Global timer (fault scripts, measurement probes); fires
    unconditionally.  Sim-only: protocol layers must use the node-affine
    timers of {!Rt.S}. *)

val run : t -> until:Time.t -> unit
val run_span : t -> Time.span -> unit

type stats = Engine.stats = { sent : int; delivered : int; wire_dropped : int; unreachable_dropped : int }

val stats : t -> stats
val in_flight : t -> int

(** {1 Fault injection}

    Convenience wrappers over {!Plwg_sim.Engine.apply_step}; each
    validates the step before applying it. *)

val crash : t -> Node_id.t -> unit
val recover : t -> Node_id.t -> unit [@@test_support "fault-injection API: the inverse of crash"]
val set_partition : t -> Node_id.t list list -> unit
val heal : t -> unit
