(** Discrete-event delivery core: the reference implementation of the
    runtime signature ({!Plwg_runtime.Rt.S}) and the executor both
    runtime backends run.

    The state is split in two.  A {!net} is the network every executor
    reads: the topology, the cost model, the handler tables, per-node
    CPU queues, recover hooks and per-node generators.  An executor
    ({!t}) owns a clock, a timing wheel of pooled events and the
    counters of the work it ran.  The sim is one executor over all
    nodes; the domains backend runs one per domain over a shared net.
    Protocol layers never see this module directly (the
    [runtime-boundary] lint enforces it): they code against
    [Plwg_runtime.Rt] and reach a backend through [Sim_rt.rt] or
    [Domains_rt.rt].

    Timers are pooled events of two kinds: one fires unconditionally,
    the other ([after_node], [after_node_]) is skipped while its node is
    down.  Faults enter only through {!apply_step}, which validates the
    step first; {!Fault} schedules steps and {!Plwg_runtime.Sim_rt} and
    [Domains_rt] apply them.

    Determinism: an executor orders events by [(time, insertion
    sequence)], all randomness comes from the net's seeded
    {!Plwg_util.Rng} streams, and handlers fire in subscription order —
    so a sim run is a pure function of the seed and the fault script. *)

type t
(** One executor over a {!net}. *)

type net

type cancel = unit -> unit
(** Cancels a pending timer; idempotent. *)

val create : ?obs:Plwg_obs.t -> ?model:Model.t -> seed:int -> n_nodes:int -> unit -> t
(** The sim: one executor over a fresh net whose every node draws from
    one root stream of [seed].  [?obs] attaches an observability root
    (trace sink + metrics registry).  Without it, every instrumentation
    site in the stack is a single branch on [None]. *)

(** {1 Runtime surface}

    Mirrors [Plwg_runtime.Rt.S] — the portion of the engine protocol
    layers are allowed to use, via the runtime abstraction. *)

val now : t -> Time.t

val n_nodes : t -> int
val nodes : t -> Node_id.t list
val is_alive : t -> Node_id.t -> bool

val rng_node : t -> Node_id.t -> Plwg_util.Rng.t
(** The node's generator: the net's slot for the node.  On the sim
    every slot is the one root stream, which also draws link jitter and
    wire drops, so draws interleave in schedule order; a net built by
    {!create_net} with an indexed {!Plwg_util.Rng.stream} per node gives
    each node an independent stream.  Layers on the same node share it
    (or [Rng.split] it once at setup). *)

val subscribe : t -> Node_id.t -> (src:Node_id.t -> Payload.t -> unit) -> unit
(** Register a receive handler for a node.  Multiple layers may
    subscribe to the same node; each delivery invokes all of them in
    subscription order. *)

val send : t -> src:Node_id.t -> dst:Node_id.t -> Payload.t -> unit
(** Transmit one message.  Silently dropped when the sender is crashed,
    the destination is unreachable (at send or arrival time), or the
    wire loses it.  Delivery pays link latency plus queueing through the
    destination's CPU ([Model.proc_time]). *)

val multicast : t -> src:Node_id.t -> dsts:Node_id.t list -> Payload.t -> unit
(** Fan-out [send] to every destination; a destination equal to the
    source receives a local loop-back copy (no wire, still pays CPU). *)

val after_node : t -> Node_id.t -> Time.span -> (unit -> unit) -> cancel
(** Node timer: skipped if the node is crashed when it fires. *)

val after_node_ : t -> Node_id.t -> Time.span -> (unit -> unit) -> unit
(** [after_node] without the cancel capability: nothing but the action
    closure is allocated. *)

val at_node_ : t -> Node_id.t -> Time.span -> (unit -> unit) -> unit
(** Node-affine fire-and-forget timer {e without} a liveness guard: the
    action runs on the node's executor even while the node is crashed.
    [Plwg_runtime.Rt.every] builds protocol loops on it, so a loop
    survives a crash/recover cycle. *)

val on_recover : t -> Node_id.t -> (unit -> unit) -> unit
(** Register a callback fired when the node transitions from crashed to
    alive.  [after_node] timers pending at crash time are silently
    skipped, so layers with one-shot retransmission timers use this to
    re-arm after recovery.  Hooks run in registration order. *)

val trace : t -> (unit -> Plwg_obs.Event.t) -> unit
(** Emit a trace event stamped with the current simulated time.  The
    thunk is only forced when a sink is attached, so callers may build
    the event (and render payloads) inside it at zero cost otherwise. *)

val count : ?by:int -> t -> string -> unit
(** Bump a named metrics counter (no-op without [?obs]). *)

val observe : t -> string -> float -> unit
(** Record a sample into a named metrics histogram (no-op without
    [?obs]). *)

(** {1 Sim-only controls} *)

val topology : t -> Topology.t
val model : t -> Model.t

val after : t -> Time.span -> (unit -> unit) -> cancel
(** Global timer (fault scripts, measurements); fires unconditionally. *)

(** {2 Faults} *)

type step =
  | Crash of Node_id.t
  | Recover of Node_id.t
  | Partition of Node_id.t list list  (** connectivity classes; disjoint and covering the universe *)
  | Heal
  | Set_model of Model.t
      (** swap the network cost model (loss burst, latency spike); messages
          already in flight keep the latency drawn at send time *)

val apply_step : t -> step -> unit
(** Apply one step now, the only way a fault enters the net.  Raises
    [Invalid_argument] unless node ids are in range, partition classes
    are disjoint and covering, and model parameters are in range.
    Liveness is not checked: [Crash] of a crashed node and [Recover] of
    a live one are silent no-ops, so fault schedules need not track
    it. *)

(** {2 Several executors over one net}

    A parallel backend builds one {!net} and one executor per worker;
    executor [i] owns the nodes [n] with [n mod n_execs = i].  Wiring,
    fault steps and reads of an executor's counters are only legal
    while every executor is quiescent. *)

val create_net :
  ?obs:Plwg_obs.t -> ?model:Model.t -> n_execs:int -> n_nodes:int -> rng:(Node_id.t -> Plwg_util.Rng.t) -> unit -> net
(** [rng n] is node [n]'s generator: it draws the node's protocol
    randomness and the link jitter and wire drops of its sends. *)

val executor :
  net -> idx:int -> remote:(tick:Time.t -> src:Node_id.t -> dst:Node_id.t -> sent_at:Time.t -> Payload.t -> unit) -> t
(** Executor [idx] of the net.  A [send] whose destination another
    executor owns passes the arrival to [remote] instead of the local
    wheel; the owner must {!arrive} it before its clock reaches
    [tick]. *)

val arrive : t -> tick:Time.t -> src:Node_id.t -> dst:Node_id.t -> sent_at:Time.t -> Payload.t -> unit
(** Schedule a message handed over by another executor: it reaches
    [dst] at [tick], is cut if [dst] is unreachable then, and queues
    through [dst]'s CPU. *)

val set_parallel : t -> bool -> unit
(** While set, the executor buffers its trace events (see
    {!take_trace}) and takes the net's lock for metrics, so executors
    can run on several domains at once. *)

val take_trace : t -> (Time.t * Plwg_obs.Event.t) list
(** The events traced while parallel, oldest first; clears the
    buffer. *)

(** {2 Execution} *)

val run : t -> until:Time.t -> unit
(** Execute all events with time <= [until]; afterwards [now] = [until]. *)

val run_span : t -> Time.span -> unit
(** [run t ~until:(now t + span)]. *)

type stats = { sent : int; delivered : int; wire_dropped : int; unreachable_dropped : int }

val stats : t -> stats

val in_flight : t -> int
(** Messages accepted onto the wire or a CPU queue and not yet
    delivered or dropped.  Fault-free, [sent = delivered + in_flight]
    at all times, so running until this reaches zero gives a moment
    where [sent = delivered] exactly (the macro bench's drain).  With
    several executors the identities hold for the sums: the sender's
    executor counts a message in, the receiver's counts it out. *)
