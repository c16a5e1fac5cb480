(** Failure / reachability detector whose evidence is traffic.

    Any message that arrives from a peer (segment, ack or datagram, as
    the transport records it) proves the peer alive.  Every 100 ms a
    node sends one heartbeat datagram to each peer it has sent nothing
    for a whole period, and none to itself, so a peer that traffic
    already reaches costs no heartbeat.  A peer is [Reachable] while it
    was heard within the last 350 ms and becomes [Unreachable] after
    350 ms of silence; the longest silence a live peer shows is about
    two periods.  Crashes, network partitions and "virtual partitions"
    caused by congestion all look the same here — exactly the
    asynchronous-system assumption the paper builds on (Section 4).

    The detector also performs {e peer discovery}: the first message
    delivered from a peer held [Unreachable] flips it [Reachable] at
    once, which is what lets the layers above notice that a partition
    healed. *)

type t

type status = Reachable | Unreachable

val create : Plwg_transport.Transport.t -> Plwg_sim.Node_id.t -> t
(** Create and start the detector for one node. *)

val status : t -> Plwg_sim.Node_id.t -> status
(** A node is always [Reachable] from itself. *)

val reachable_set : t -> Plwg_sim.Node_id.Set.t
(** Peers currently believed reachable, including the node itself. *)

val on_change : t -> (Plwg_sim.Node_id.t -> status -> unit) -> unit
(** Subscribe to status transitions.  Callbacks run in subscription
    order, from within the simulation event that caused the change. *)
