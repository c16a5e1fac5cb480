(** Identifiers and views for the virtually-synchronous (heavy-weight
    group) layer. *)

open Plwg_sim

(** Group identifier: [(seq, origin)] pairs issued from a per-node
    counter.  They are unique across concurrent partitions and totally
    ordered, which the paper's reconciliation rule — "switch to the HWG
    with the highest group identifier" (Section 6.2) — depends on. *)
module Gid : sig
  type t = { seq : int; origin : Node_id.t }

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit

  val code : t -> int
  (** Bijective int packing (seq-major).  [Int.compare] on codes equals
      {!compare} on ids, so codes serve as allocation-free hashtable and
      sorted-iteration keys.  Raises [Invalid_argument] if the origin
      does not fit 16 bits. *)

  val of_code : int -> t

  val to_string : t -> string
  (** Interned: each distinct id is rendered once and the same string is
      returned afterwards — cheap enough for trace/log boundaries. *)

  module Map : Map.S with type key = t
  module Set : Set.S with type elt = t
end

(** View identifier: [(coordinator, view-sequence-number)] exactly as in
    the paper (Section 5.1). *)
module View_id : sig
  type t = { coord : Node_id.t; seq : int }

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit

  val code : t -> int
  (** Same seq-major packing as {!Gid.code}: int order = {!compare}
      order.  Raises [Invalid_argument] if the coordinator id does not
      fit 16 bits. *)

  val of_code : int -> t

  val to_string : t -> string
  (** Interned, as {!Gid.to_string}. *)

  module Map : Map.S with type key = t
  module Set : Set.S with type elt = t
end

(** An installed view: membership plus lineage.  [preds] lists the view
    ids the merged members came from.  The type is private so that every
    view comes from {!make} or {!of_set}, which store the member set
    alongside the sorted member list. *)
module View : sig
  type t = private {
    id : View_id.t;
    group : Gid.t;
    members : Node_id.t list;  (** ascending, no duplicates *)
    preds : View_id.t list;
    members_set : Node_id.Set.t;  (** the same members, built once with the view *)
  }

  val members_set : t -> Node_id.Set.t
  (** The stored set: repeated calls return the same physical set and
      allocate nothing. *)

  val mem : Node_id.t -> t -> bool

  (** The acting coordinator of an installed view: its smallest member.
      Raises [Invalid_argument] on an empty view. *)
  val coordinator : t -> Node_id.t

  val make : id:View_id.t -> group:Gid.t -> members:Node_id.t list -> preds:View_id.t list -> t
  (** Sorts and deduplicates [members] and builds their set. *)

  val of_set : id:View_id.t -> group:Gid.t -> members:Node_id.Set.t -> preds:View_id.t list -> t
  (** {!make} from a member set the caller already holds: the set is
      stored as it is and only the list is built. *)

  val pp : Format.formatter -> t -> unit
end

(** One application message inside a view.  [sender]/[seq] drive the
    reliable-FIFO machinery; [origin]/[local_id] identify the message
    for the application; [vc] is the sender's delivery vector at send
    time (empty except in causal mode). *)
type app_msg = {
  sender : Node_id.t;
  seq : int;
  origin : Node_id.t;
  local_id : int;
  vc : (Node_id.t * int) list;
  body : Payload.t;
}

val pp_app_msg : Format.formatter -> app_msg -> unit

(** Message ordering discipline of a group. *)
type ordering = Fifo | Causal | Total
