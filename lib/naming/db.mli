(** The naming-service mapping database (paper Section 5.2).

    For partitionable operation the database does not merely map
    LWG → HWG; it maps {e LWG views} to HWGs, because concurrent views
    of the same LWG can legitimately coexist with different mappings
    (paper Table 3).  Each entry carries the predecessor view ids of its
    LWG view; the union of all predecessor ids ever seen forms the
    "superseded" set, and an entry is live iff its view id is not
    superseded — this is the causal-order garbage collection that lets
    the database discard obsolete mappings (paper Table 4, step 4).

    The structure is pure data: replica servers hold one each and
    reconcile by [merge]. *)

open Plwg_vsync.Types

type entry = {
  lwg : Gid.t;  (** the light-weight group *)
  lwg_view : View_id.t;  (** the specific view of it *)
  members : Plwg_sim.Node_id.t list;  (** members of that view (callback targets) *)
  hwg : Gid.t;  (** the heavy-weight group it is mapped onto *)
  hwg_view : View_id.t option;  (** the HWG view, when known *)
  preds : View_id.t list;  (** immediate predecessor LWG views *)
}

val pp_entry : Format.formatter -> entry -> unit

type t

val create : unit -> t

val set : t -> entry -> unit
(** Insert or replace the mapping for [entry.lwg_view] and retire every
    predecessor view. *)

val read : t -> Gid.t -> entry list
(** Live entries for a LWG, ordered by view id.  Multiple entries mean
    concurrent views exist; entries mapping to different HWGs mean the
    mappings are inconsistent and must be reconciled. *)

val test_and_set : t -> entry -> entry list
(** Paper's [ns.testset]: if live entries exist, return them unchanged;
    otherwise insert [entry] and return [[entry]]. *)

val merge : t -> t -> bool
(** [merge t other] folds [other]'s knowledge into [t] (entries and
    superseded sets).  Used both by anti-entropy gossip and by the
    partition-heal reconciliation.

    Returns [true] iff some superseded set grew or some LWG's live list
    differs from before the merge, list order included; the server
    notifies conflicts on [true].  The lists of an LWG [other] names
    are compared after all of its entries are inserted, so a merge
    that reorders a list and restores it reports no change.

    Cost follows what changed: a peer superseded set we already hold
    costs membership tests, and an entry that already heads its list
    is left in place.  A merge with no news allocates a constant few
    words, whatever the size of either database. *)

val conflicting : t -> Gid.t -> bool
(** True iff the live entries of the LWG name more than one HWG. *)

val conflicts : t -> Gid.t list
(** All LWGs whose live entries are currently inconsistent. *)

val lwgs : t -> Gid.t list
(** Every LWG the database knows (live entries only). *)

val is_superseded : t -> lwg:Gid.t -> View_id.t -> bool
  [@@test_support "tests check the tombstones against a model"]

val snapshot : t -> t
(** An independent copy in O(1), for shipping in a gossip message: the
    two persistent maps are shared, and a later [set] or [merge] on
    either copy leaves the other unchanged. *)

val size : t -> int
(** Number of live entries across all LWGs. *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering in the style of the paper's Tables 3/4. *)
