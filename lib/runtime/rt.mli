(** The runtime signature — what a protocol layer may ask of the world.

    Every layer above the network (transport, detector, vsync, lwg,
    naming) codes against {!type:t}, a packed first-class module, and
    never against a concrete engine (the [runtime-boundary] lint
    enforces this).  Two backends implement {!S}:

    - {!Sim_rt}: the deterministic single-executor discrete-event
      simulator — the reference semantics (the oracle);
    - [Plwg_runtime_domains.Domains_rt]: an OCaml 5 multi-domain
      backend running one sim executor per domain over a shared
      network, with the same delivery semantics and fault plane.

    The surface is deliberately {e node-affine}: every timer and every
    receive handler names the node it belongs to, so a parallel backend
    can route all of a node's work to the domain that owns it and
    node-local protocol state needs no locks.  There is no global
    timer and no global randomness — per-node seeded generators
    ({!rng_node}) keep runs reproducible on both backends. *)

open Plwg_sim

type cancel = unit -> unit
(** Cancels a pending timer; idempotent. *)

module type S = sig
  type t

  val now : t -> Time.t
  (** Current virtual time at the calling executor. *)

  val n_nodes : t -> int
  val nodes : t -> Node_id.t list

  val is_alive : t -> Node_id.t -> bool
  (** Whether the node is currently up.  Both backends crash and
      recover nodes through the sim's fault plane. *)

  val subscribe : t -> Node_id.t -> (src:Node_id.t -> Payload.t -> unit) -> unit
  (** Register a receive handler for a node; handlers fire in
      subscription order, on the node's executor.  Wiring-time only:
      backends may freeze handler tables before execution starts. *)

  val send : t -> src:Node_id.t -> dst:Node_id.t -> Payload.t -> unit
  (** Transmit one message from [src]'s executor.  Delivery pays the
      backend's link latency plus destination CPU queueing; the message
      may be dropped (crash, partition, wire loss) without notice. *)

  val multicast : t -> src:Node_id.t -> dsts:Node_id.t list -> Payload.t -> unit
  (** Fan-out [send]; a destination equal to the source receives a
      local loop-back copy. *)

  val after_node : t -> Node_id.t -> Time.span -> (unit -> unit) -> cancel
  (** Node timer: fires on the node's executor, skipped if the node is
      crashed when it fires. *)

  val after_node_ : t -> Node_id.t -> Time.span -> (unit -> unit) -> unit
  (** [after_node] without the cancel capability (cheaper: nothing but
      the action closure need be allocated). *)

  val at_node_ : t -> Node_id.t -> Time.span -> (unit -> unit) -> unit
  (** Node-affine fire-and-forget timer {e without} a liveness guard:
      fires on the node's executor even while the node is crashed.
      {!every} builds protocol loops on it. *)

  val on_recover : t -> Node_id.t -> (unit -> unit) -> unit
  (** Callback fired when the node transitions from crashed to alive;
      hooks run in registration order.  The domains backend recovers
      nodes only while quiescent, so its hooks run on the main domain
      between runs. *)

  val rng_node : t -> Node_id.t -> Plwg_util.Rng.t
  (** The node's seeded generator.  On the sim it is the one root
      stream every node and the wire share, so draws interleave in the
      sim's schedule order.  The domains backend gives each node an
      independent {!Plwg_util.Rng.stream}, so there a layer's draws
      depend only on the seed and its own call sequence, whatever the
      domain count.  Owned by the node: only code running on the
      node's executor may draw from it. *)

  val trace : t -> (unit -> Plwg_obs.Event.t) -> unit
  (** Emit a trace event stamped with the current virtual time.  The
      thunk is forced exactly when a sink is attached, and before
      anything is recorded, so an exception it raises escapes with
      nothing emitted: {!tracing} relies on this.  Whether a sink is
      attached is fixed when the backend is created. *)

  val count : ?by:int -> t -> string -> unit
  (** Bump a named metrics counter (no-op without observability). *)

  val observe : t -> string -> float -> unit
  (** Record a sample into a named metrics histogram (no-op without
      observability). *)
end

type t = Rt : (module S with type t = 'a) * 'a -> t
(** A backend packed with its handle.  Layers store this and go through
    the flat accessors below; the unpack compiles to a record field
    load, so dispatch adds no per-call allocation. *)

(** {1 Flat dispatch} *)

include S with type t := t

val every : ?while_:(unit -> bool) -> t -> Node_id.t -> first:Time.span -> period:Time.span -> (unit -> unit) -> unit
(** [every rt node ~first ~period body]: a protocol loop that fires
    [first] from now and every [period] after, running [body] only
    while the node is up.  It reschedules with {!at_node_}, so a crash
    merely suppresses the body and the first firing after a recover
    resumes it, with nothing to re-arm.  The loop ends, without running
    [body] again, at the first firing where [while_] (default: always
    true) returns false. *)

val tracing : t -> bool
(** Whether {!trace} reaches a sink, probed through [trace] itself with
    a thunk that raises (see the contract of [S.trace]).  Constant for a
    backend's lifetime, so layers read it once at creation and guard
    their per-message [trace] calls with it: without flambda the thunk
    closure is allocated at every call, even when it is never forced. *)
