(** Trace recording and virtual-synchrony invariant checking.

    A recorder collects the protocol events of every node in a run; the
    [check_*] functions then verify the guarantees the HWG layer claims.
    Each check returns a list of human-readable violations (empty means
    the invariant holds), so tests can assert [check_all t = []] and
    print the counter-example otherwise. *)

open Plwg_sim
open Types

type t

val create : unit -> t

val hook : t -> Time.t -> Hwg.event -> unit
(** Pass [hook t] as the [?recorder] argument of {!Hwg.create} for every
    node that should be traced. *)

val events : t -> (Time.t * Hwg.event) list
(** All recorded events, oldest first.  [hook] is safe to call from
    several domains at once; each node's events keep the order its
    executor produced them, while events of nodes on different domains
    interleave in arrival order. *)

val installs_of : t -> node:Node_id.t -> group:Gid.t -> View.t list
(** Views installed by a node for a group, in order. *)

val check_self_inclusion : t -> string list
(** A node only installs views that contain it. *)

val check_view_agreement : t -> string list
(** Any two installs of the same view id agree on group and members. *)

val check_local_monotonicity : t -> string list
(** Per node and group, installed view sequence numbers increase. *)

val check_view_id_unique_per_change : t -> string list
(** A node never installs the same view id twice. *)

val check_no_duplicate_delivery : t -> string list
(** Per node and group, each (origin, local id) is delivered once. *)

val check_fifo : t -> string list
(** Per node, group and origin, local ids are delivered in increasing
    order. *)

val check_virtual_synchrony : t -> string list
(** Two nodes that install the same view V and then the same successor
    view V' deliver the same set of messages in V — the defining
    property of (partitionable) virtual synchrony. *)

val check_total_order : t -> group:Gid.t -> string list
(** For a total-order group: within each view, all members deliver
    messages in prefix-compatible order. *)

val check_all : t -> string list
(** Every group-agnostic check above. *)
