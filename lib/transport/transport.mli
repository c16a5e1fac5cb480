(** Reliable FIFO point-to-point channels over the lossy simulated network.

    Guarantees, per ordered pair of nodes: messages are delivered in
    send order, without duplication, while the two nodes stay mutually
    reachable.  Loss is masked by acknowledgement + retransmission with
    exponential backoff (20 ms initial timeout, capped at 320 ms).  When
    retransmission gives up after 8 retries (e.g. the peer is
    partitioned away), the connection resets: queued messages are
    discarded and a later send starts a fresh connection epoch, so stale
    fragments of the old stream are never delivered out of order.
    Unacked segments live in pooled slots that are poisoned on release;
    any path that touches a released slot raises instead of replaying
    stale bytes.

    This mirrors what group-communication stacks build on UDP; the
    virtual-synchrony layer assumes exactly this service and handles the
    connection-reset (= message-cut) case with its flush protocol. *)

type t
(** One transport fabric per runtime; hands out per-node endpoints. *)

type endpoint

val create : Plwg_runtime.Rt.t -> t

val runtime : t -> Plwg_runtime.Rt.t

val endpoint : t -> Plwg_sim.Node_id.t -> endpoint
(** The endpoint for a node; created on first use, shared afterwards. *)

val send : endpoint -> dst:Plwg_sim.Node_id.t -> Plwg_sim.Payload.t -> unit

val on_receive : endpoint -> (src:Plwg_sim.Node_id.t -> Plwg_sim.Payload.t -> unit) -> unit
(** Register a receive handler; all handlers run on every delivery, in
    registration order.  Layers dispatch on their own payload
    constructors. *)

val send_raw : endpoint -> dst:Plwg_sim.Node_id.t -> Plwg_sim.Payload.t -> unit
(** Best-effort unicast datagram: no retransmission, no ordering
    guarantee relative to channel traffic.  Suited to periodic
    full-state pushes (anti-entropy gossip, heartbeats). *)

val broadcast_raw : t -> src:Plwg_sim.Node_id.t -> Plwg_sim.Payload.t -> unit
(** Best-effort datagram to every other node of the universe (models
    LAN/IP multicast); the sender gets no copy.  No retransmission;
    received through the same handlers. *)

val in_flight : endpoint -> int
(** Unacknowledged messages queued at this endpoint.  O(1): a counter
    maintained by send/ack/reset, so pollers (the macro bench) can
    sample it per event at no cost. *)

val in_flight_peak : endpoint -> int
(** High-water mark of {!in_flight} over the endpoint's lifetime. *)

val heard_at : endpoint -> Plwg_sim.Node_id.t -> Plwg_sim.Time.t
(** When anything (segment, ack or datagram) last arrived here from the
    peer; negative if nothing has yet.  Any arrival proves the peer
    alive, so the failure detector reads this instead of counting
    heartbeats. *)

val spoke_at : endpoint -> Plwg_sim.Node_id.t -> Plwg_sim.Time.t
(** When this endpoint last sent anything (segment, retransmission, ack
    or {!send_raw} datagram) to the peer; negative if never.  The
    detector beats explicitly only to peers this has left silent. *)
