(** Failure / reachability detector whose evidence is traffic, scoped to
    the peers this node's consumers name.

    Any message that arrives from a peer (segment, ack or datagram, as
    the transport records it) proves the peer alive and flips it
    [Reachable] at once.  Crashes, network partitions and "virtual
    partitions" caused by congestion all look the same here — exactly
    the asynchronous-system assumption the paper builds on (Section 4).

    Monitoring costs what the groups need.  A peer is {e watched} while
    a consumer holds a lease on it: {!watch} renews the lease for 1 s,
    and the HWG service, the naming client and the naming server renew
    it from loops they already run for the peers they depend on.

    - A watched peer this node sent nothing for a 100 ms round gets a
      heartbeat that asks for an answer.  It is [Unreachable] once it
      was silent for 350 ms (and watched for as long).
    - A node answers an asking heartbeat when it sent the asker nothing
      for a round, so a peer that does not watch this node back
      still shows it signs of life, and interest on one side only
      causes no false suspicion.
    - Every other peer gets a probe that asks for nothing about every
      400 ms and is never suspected for going silent.  The probe is
      {e peer discovery}: it lets two nodes no group connects yet (two
      lineages that never met, a partition healed between strangers)
      see each other, and the layers above notice the heal. *)

type t

type status = Reachable | Unreachable

val create : Plwg_transport.Transport.t -> Plwg_sim.Node_id.t -> t
(** Create and start the detector for one node. *)

val watch : t -> Plwg_sim.Node_id.t -> unit
(** Renew this node's interest in the peer: it stays watched for the
    next second.  Allocation-free, so consumers may call it per peer on
    every round. *)

val status : t -> Plwg_sim.Node_id.t -> status
(** A node is always [Reachable] from itself.  A peer no consumer
    watches keeps the status it last had: [Reachable] once heard, until
    a lease makes its silence count. *)

val on_change : t -> (Plwg_sim.Node_id.t -> status -> unit) -> unit
(** Subscribe to status transitions.  Callbacks run in subscription
    order, from within the simulation event that caused the change. *)
