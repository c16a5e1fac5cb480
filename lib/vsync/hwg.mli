(** Partitionable virtually-synchronous group service — the paper's
    {e heavy-weight group} (HWG) substrate.

    One [t] runs per node and manages all of that node's group
    memberships.  The interface is the paper's Table 1:
    [join]/[leave]/[send]/[stop_ok] downcalls and [on_view]/[on_data]/
    [on_stop] upcalls.  StopOk is requested by passing [on_stop]:
    without it every Stop is acknowledged at once.

    Guarantees, checked by [Plwg_harness.Trace_check] from the traced
    [View_installed]/[Group_delivered]/[Group_left] events (layer [Hwg]):
    - {b self-inclusion}: a node only installs views it belongs to;
    - {b view agreement}: two nodes installing the same view id agree on
      its membership;
    - {b virtual synchrony}: two nodes that install the same view and
      the same successor view deliver the same set of messages in
      between;
    - {b FIFO} (or total order, per group) within each view;
    - {b partitionable operation}: a partition splits a group into
      concurrent views, each making progress on its side; healed
      partitions merge back into one view whose [preds] record the
      lineage.

    The membership protocol is coordinator-driven: the smallest
    reachable candidate runs an epoch-stamped stop / flush / install
    round, waiting 600 ms for FLUSHED replies.  Peer discovery (for
    joins and for partition healing) rides on best-effort
    [VIEW-ANNOUNCE] broadcasts, mirroring IP multicast on a LAN: a
    coordinator announces every 250 ms for 2 s after an install, a peer
    turning reachable or a join or concurrent view heard, and while a
    member it lost involuntarily, a joiner or a foreign sighting is
    pending; otherwise only every 2 s.  A joiner that hears nothing for
    500 ms forms a singleton view.
    Members exchange delivery vectors every 500 ms and prune stable
    messages from the retransmission store. *)

open Plwg_sim
open Types

type t

type callbacks = {
  on_view : Gid.t -> View.t -> unit;
      (** New view installed for a group this node belongs to. *)
  on_data : Gid.t -> view_id:View_id.t -> src:Node_id.t -> Payload.t -> unit;
      (** Message delivery; [view_id] is the view the message was sent
          in (always the currently installed view). *)
  on_stop : (Gid.t -> unit) option;
      (** Traffic must stop (a flush is starting).  [None] acknowledges
          every Stop at once; [Some f] calls [f] and holds this node's
          FLUSHED reply until {!stop_ok}. *)
}

val no_callbacks : callbacks
(** Ignores views and data; acknowledges every Stop at once. *)

val create :
  transport:Plwg_transport.Transport.t ->
  detector:Plwg_detector.Detector.t ->
  callbacks ->
  Node_id.t ->
  t

val fresh_gid : t -> Gid.t
(** Mint a group identifier unique across the whole system. *)

val join : ?ordering:ordering -> t -> Gid.t -> unit
(** Start joining a group.  Completion is signalled by the first
    [on_view] containing this node.  Idempotent while joining/joined. *)

val leave : t -> Gid.t -> unit
(** Leave a group.  The node takes part in one final flush (so virtual
    synchrony holds for the survivors) and then stops receiving
    upcalls for the group. *)

val send : t -> Gid.t -> Payload.t -> unit
(** Virtually-synchronous multicast to the current view.  While a flush
    is in progress the message is buffered and sent in the next view.
    @raise Invalid_argument if this node is not a member (nor joining). *)

val stop_ok : t -> Gid.t -> unit [@@test_support "application API: ack a manual-stop flush"]
(** Acknowledge an [on_stop] upcall; a no-op unless [on_stop] is
    [Some _] and a Stop is pending. *)

val force_flush : t -> Gid.t -> unit
(** Request a view change that re-installs the current membership.  The
    flush synchronisation point is what the light-weight-group layer's
    merge-views protocol (paper Figure 5) relies on. *)

val view_of : t -> Gid.t -> View.t option
val is_member : t -> Gid.t -> bool
val groups : t -> Gid.t list
(** Groups this node is currently a member of (installed views). *)

val am_coordinator : t -> Gid.t -> bool

val store_size : t -> Gid.t -> int [@@test_support "tests observe the message store"]
(** Messages currently retained for flush-time retransmission in the
    group's view (introspection; exercised by the stability-GC tests).
    O(1): a counter, not a list walk. *)

val frozen_size : t -> Gid.t -> int [@@test_support "tests observe the frozen store"]
(** Messages held back for a later delivery in the group: received out
    of order, during a view change, or ahead of their view's install.
    Only views the node can still install are kept, so once an install
    has drained this is 0.  O(1). *)

val store_peak : t -> Gid.t -> int
(** Lifetime high-water mark of {!store_size} for the group (spans view
    changes; used by the macro benchmark to report peak memory). *)
