(** Client stub for the naming service (paper Table 2).

    The three primitives are asynchronous: each takes a continuation
    invoked with the reply.  The client targets a reachable replica
    (per its failure detector) and retries on timeout with bounded
    exponential backoff (800 ms first, doubling, capped at 5 s) plus
    seeded jitter, rotating to a different replica whenever more than
    one candidate exists — so requests survive replica crashes and
    partitions as long as one replica is reachable, mirroring the
    paper's placement assumption of "at least one server available in
    each partition", without a single slow replica absorbing the whole
    retry budget.

    Every request terminates: once 6 attempts time out (or no replica
    is configured) the client gives up and invokes the continuation
    with an explicit failure — [false] for [set], the empty entry list
    for [read]/[test_and_set] — and emits an [Ns_give_up] trace event.
    Callers never hang on a dead naming service. *)

open Plwg_sim
open Plwg_vsync.Types

type t

val create :
  transport:Plwg_transport.Transport.t ->
  detector:Plwg_detector.Detector.t ->
  servers:Node_id.t list ->
  Node_id.t ->
  t

val set : t -> Db.entry -> k:(bool -> unit) -> unit
(** [ns.set]: store a view-level mapping (retiring its predecessors).
    The continuation receives [true] on ack, [false] on give-up. *)

val read : t -> Gid.t -> k:(Db.entry list -> unit) -> unit
(** [ns.read]: live entries for a LWG (empty if unknown or on
    give-up). *)

val test_and_set : t -> Db.entry -> k:(Db.entry list -> unit) -> unit
(** [ns.testset]: return the current mapping, or install [entry] if
    there is none.  Empty on give-up. *)

val on_multiple_mappings : t -> (Gid.t -> Db.entry list -> unit) -> unit
(** Subscribe to the server-initiated inconsistency callbacks. *)
