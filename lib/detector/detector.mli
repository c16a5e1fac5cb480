(** Heartbeat failure / reachability detector.

    Every node periodically broadcasts a heartbeat to the whole universe
    (modelling a LAN multicast) every 100 ms.  A peer is [Reachable]
    while heartbeats keep arriving and becomes [Unreachable] after
    350 ms of silence.  Crashes, network partitions and "virtual
    partitions" caused by congestion all look the same here — exactly
    the asynchronous-system assumption the paper builds on (Section 4).

    The detector also performs {e peer discovery}: the first heartbeat
    from a previously silent node flips it to [Reachable], which is what
    lets the layers above notice that a partition healed. *)

type t

type status = Reachable | Unreachable

val create : Plwg_transport.Transport.t -> Plwg_sim.Node_id.t -> t
(** Create and start the detector for one node. *)

val node : t -> Plwg_sim.Node_id.t

val status : t -> Plwg_sim.Node_id.t -> status
(** A node is always [Reachable] from itself. *)

val reachable_set : t -> Plwg_sim.Node_id.Set.t
(** Peers currently believed reachable, including the node itself. *)

val on_change : t -> (Plwg_sim.Node_id.t -> status -> unit) -> unit
(** Subscribe to status transitions.  Callbacks run in subscription
    order, from within the simulation event that caused the change. *)
