(** Public face of the deterministic simulation library.

    Base types ({!Time}, {!Node_id}, {!Payload}, {!Model}, {!Topology})
    are re-exported in full.  {!Engine} is narrowed to the runtime
    surface (what {!Plwg_runtime.Sim_rt} adapts), sim driver controls
    and the executor API the domains backend builds on: the raw fault
    transitions are sim-private — only [lib/sim/fault.ml] sees them — so
    every external fault injection goes through the validated,
    declarative {!Fault} API and is traced uniformly. *)

module Time : module type of Time
module Node_id : module type of Node_id
module Payload : module type of Payload
module Model : module type of Model
module Topology : module type of Topology

module Engine : sig
  type t
  (** One executor over a {!net}. *)

  type net
  (** The network state every executor reads. *)

  type cancel = unit -> unit
  (** Cancels a pending timer; idempotent. *)

  val create : ?obs:Plwg_obs.t -> ?model:Model.t -> seed:int -> n_nodes:int -> unit -> t
  (** [?obs] attaches an observability root (trace sink + metrics
      registry).  Without it, every instrumentation site in the stack is
      a single branch on [None]. *)

  (** {1 Runtime surface}

      Mirrors [Plwg_runtime.Rt.S].  Protocol layers never call these
      directly (the [runtime-boundary] lint forbids it); they reach the
      engine through the runtime abstraction. *)

  val now : t -> Time.t
  val n_nodes : t -> int
  val nodes : t -> Node_id.t list
  val is_alive : t -> Node_id.t -> bool

  val rng_node : t -> Node_id.t -> Plwg_util.Rng.t
  (** The node's generator: on the sim, the one root stream every node
      and the wire share; on a net built with an indexed
      {!Plwg_util.Rng.stream} per node, the node's own stream. *)

  val subscribe : t -> Node_id.t -> (src:Node_id.t -> Payload.t -> unit) -> unit
  (** Register a receive handler for a node; handlers fire in
      subscription order. *)

  val send : t -> src:Node_id.t -> dst:Node_id.t -> Payload.t -> unit
  (** Transmit one message.  Silently dropped when the sender is
      crashed, the destination is unreachable (at send or arrival time),
      or the wire loses it.  Delivery pays link latency plus queueing
      through the destination's CPU ([Model.proc_time]). *)

  val multicast : t -> src:Node_id.t -> dsts:Node_id.t list -> Payload.t -> unit
  (** Fan-out [send] to every destination; a destination equal to the
      source receives a local loop-back copy (no wire, still pays CPU). *)

  val after_node : t -> Node_id.t -> Time.span -> (unit -> unit) -> cancel
  (** Node timer: skipped if the node is crashed when it fires. *)

  val after_node_ : t -> Node_id.t -> Time.span -> (unit -> unit) -> unit
  (** [after_node] without the cancel capability: nothing but the action
      closure is allocated. *)

  val at_node_ : t -> Node_id.t -> Time.span -> (unit -> unit) -> unit
  (** Node-affine fire-and-forget timer {e without} a liveness guard;
      self-rescheduling protocol loops use this (guarding their own tick
      with [is_alive]) so the loop survives a crash/recover cycle. *)

  val on_recover : t -> Node_id.t -> (unit -> unit) -> unit
  (** Callback fired when the node transitions from crashed to alive;
      hooks run in registration order. *)

  val trace : t -> (unit -> Plwg_obs.Event.t) -> unit
  (** Emit a trace event stamped with the current simulated time.  The
      thunk is only forced when a sink is attached. *)

  val count : ?by:int -> t -> string -> unit
  (** Bump a named metrics counter (no-op without [?obs]). *)

  val observe : t -> string -> float -> unit
  (** Record a sample into a named metrics histogram (no-op without
      [?obs]). *)

  (** {1 Sim driver controls}

      Fault injection is not here: use {!Fault}. *)

  val topology : t -> Topology.t
  val model : t -> Model.t

  val after : t -> Time.span -> (unit -> unit) -> cancel
  (** Global timer (fault scripts, measurements); fires
      unconditionally. *)

  val after_ : t -> Time.span -> (unit -> unit) -> unit
  (** [after] without the cancel capability. *)

  (** {2 Several executors over one net}

      For a parallel backend: executor [i] owns the nodes [n] with
      [n mod n_execs = i].  Wiring, fault steps and counter reads are
      only legal while every executor is quiescent. *)

  val create_net :
    ?obs:Plwg_obs.t -> ?model:Model.t -> n_execs:int -> n_nodes:int -> rng:(Node_id.t -> Plwg_util.Rng.t) -> unit -> net

  val executor :
    net -> idx:int -> remote:(tick:Time.t -> src:Node_id.t -> dst:Node_id.t -> sent_at:Time.t -> Payload.t -> unit) -> t
  (** A [send] to a node another executor owns goes to [remote]; the
      owner must {!arrive} it before its clock reaches [tick]. *)

  val arrive : t -> tick:Time.t -> src:Node_id.t -> dst:Node_id.t -> sent_at:Time.t -> Payload.t -> unit

  val set_parallel : t -> bool -> unit
  (** While set, traces buffer for {!take_trace} and metrics take the
      net's lock. *)

  val take_trace : t -> (Time.t * Plwg_obs.Event.t) list
  (** Buffered trace events, oldest first; clears the buffer. *)

  val run : t -> until:Time.t -> unit
  (** Execute all events with time <= [until]; afterwards
      [now] = [until]. *)

  val run_span : t -> Time.span -> unit
  (** [run t ~until:(now t + span)]. *)

  val run_until_idle : ?limit:Time.t -> t -> unit
  (** Execute until the queue drains or simulated time would pass
      [limit] (default 1 hour); afterwards [now] = [limit], mirroring
      [run].  Periodic protocol timers never drain, so most callers want
      [run]. *)

  type stats = { sent : int; delivered : int; wire_dropped : int; unreachable_dropped : int }

  val stats : t -> stats

  val in_flight : t -> int
  (** Messages accepted onto the wire or a CPU queue and not yet
      delivered or dropped.  Fault-free, [sent = delivered + in_flight]
      at all times. *)
end

module Fault : sig
  (** Declarative fault scripts — the only external fault-injection
      surface.  Steps are validated, applied through the engine's
      transition-only primitives, and traced uniformly. *)

  type step =
    | Crash of Node_id.t
    | Recover of Node_id.t
    | Partition of Node_id.t list list
        (** connectivity classes; disjoint and covering the universe *)
    | Heal
    | Set_model of Model.t
        (** swap the network cost model (loss burst, latency spike) *)

  val validate_step : n_nodes:int -> step -> (unit, string) result
  (** Static validity of a step against a universe of [n_nodes] nodes:
      node ids in range, partition classes disjoint and covering, model
      parameters in range.  Liveness is not checked — [Crash] of a
      crashed node and [Recover] of a live one are valid no-ops. *)

  val apply : Engine.t -> step -> unit
  (** Apply one step now.  Idempotent with respect to node state; raises
      [Invalid_argument] if {!validate_step} rejects the step. *)

  val install : Engine.t -> (Time.t * step) list -> unit
  (** Schedule each step at its absolute time.  A step scheduled in the
      past of the engine's current clock fires immediately on the next
      [run] and emits a [Fault_past_step] trace warning. *)

  (** JSON round-trip for fault scripts, used by the chaos shrinker's
      repro artifacts.  [Model.drop_prob] is encoded as an integer in
      parts-per-million ([drop_ppm]). *)

  val script_to_json : (Time.t * step) list -> Plwg_obs.Json.t
  val script_of_json : Plwg_obs.Json.t -> (Time.t * step) list
end
