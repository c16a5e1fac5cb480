(** Identifiers and views for the virtually-synchronous (heavy-weight
    group) layer. *)

open Plwg_sim

(** Group identifier: [(seq, origin)] pairs issued from a per-node
    counter.  They are unique across concurrent partitions and totally
    ordered, which the paper's reconciliation rule — "switch to the HWG
    with the highest group identifier" (Section 6.2) — depends on. *)
module Gid = struct
  module Ord = struct
    type t = { seq : int; origin : Node_id.t }

    let compare a b =
      let c = Int.compare a.seq b.seq in
      if c <> 0 then c else Node_id.compare a.origin b.origin
  end

  include Ord

  let equal a b = compare a b = 0
  let pp ppf t = Format.fprintf ppf "g%d.%a" t.seq Node_id.pp t.origin

  (* Bijective int packing, seq-major: since [compare] orders by seq then
     origin and both components are non-negative, [Int.compare] on codes
     equals [compare] on ids — codes are safe as sorted-iteration keys.
     Allocation-free, unlike a first-seen intern table (whose numbering
     would depend on processing history and break determinism checks). *)
  let origin_bits = 16

  let code t =
    if not (Int.equal (t.origin lsr origin_bits) 0) then invalid_arg "Gid.code: origin out of range";
    (t.seq lsl origin_bits) lor t.origin

  let of_code c = { seq = c lsr origin_bits; origin = c land ((1 lsl origin_bits) - 1) }

  let render_string c =
    let t = of_code c in
    Format.asprintf "%a" pp t

  let strings : string Plwg_util.Intern.t =
    Plwg_util.Intern.create ()
  [@@shared_cell "render-string intern cache: trace-boundary only, behind Intern's idempotent writes"]
  let to_string t = Plwg_util.Intern.intern strings (code t) render_string

  module Map = Map.Make (Ord)
  module Set = Set.Make (Ord)
end

(** View identifier: [(coordinator, view-sequence-number)] exactly as in
    the paper (Section 5.1).  The sequence number is drawn from the
    coordinator's local counter and made larger than every predecessor
    view's, so ids are unique and grow along any chain of views. *)
module View_id = struct
  module Ord = struct
    type t = { coord : Node_id.t; seq : int }

    let compare a b =
      let c = Int.compare a.seq b.seq in
      if c <> 0 then c else Node_id.compare a.coord b.coord
  end

  include Ord

  let equal a b = compare a b = 0
  let pp ppf t = Format.fprintf ppf "v%d@%a" t.seq Node_id.pp t.coord

  (* Same seq-major packing as {!Gid.code}: int order = [compare] order. *)
  let coord_bits = 16

  let code t =
    if not (Int.equal (t.coord lsr coord_bits) 0) then invalid_arg "View_id.code: coord out of range";
    (t.seq lsl coord_bits) lor t.coord

  let of_code c = { seq = c lsr coord_bits; coord = c land ((1 lsl coord_bits) - 1) }

  let render_string c =
    let t = of_code c in
    Format.asprintf "%a" pp t

  let strings : string Plwg_util.Intern.t =
    Plwg_util.Intern.create ()
  [@@shared_cell "render-string intern cache: trace-boundary only, behind Intern's idempotent writes"]
  let to_string t = Plwg_util.Intern.intern strings (code t) render_string

  module Map = Map.Make (Ord)
  module Set = Set.Make (Ord)
end

(** An installed view: membership plus lineage.  [preds] lists the view
    ids the merged members came from — the partial order of views the
    naming service uses to garbage-collect obsolete mappings.  The
    member set is built once, with the view: the membership reactions
    ask for it on every carrier install, per LWG. *)
module View = struct
  type t = {
    id : View_id.t;
    group : Gid.t;
    members : Node_id.t list;
    preds : View_id.t list;
    members_set : Node_id.Set.t;
  }

  let members_set t = t.members_set
  let mem node t = Node_id.Set.mem node t.members_set

  (** The acting coordinator of an installed view: its smallest member.
      (The paper says "usually its oldest member"; smallest-id is the
      deterministic equivalent that survives merges.) *)
  let coordinator t = match t.members with [] -> invalid_arg "View.coordinator: empty view" | m :: _ -> m

  let make ~id ~group ~members ~preds =
    let members = List.sort_uniq Node_id.compare members in
    { id; group; members; preds; members_set = Node_id.Set.of_list members }

  let of_set ~id ~group ~members ~preds = { id; group; members = Node_id.Set.elements members; preds; members_set = members }

  let pp ppf t =
    Format.fprintf ppf "%a:%a%a" Gid.pp t.group View_id.pp t.id Node_id.pp_list t.members
end

(** One application message inside a view.  [sender]/[seq] drive the
    reliable-FIFO machinery; [origin]/[local_id] identify the message for
    the application (they differ from sender/seq only in total-order
    mode, where the coordinator re-multicasts on behalf of the origin).
    [vc] is the sender's delivery vector at send time — empty except in
    causal mode, where receivers delay a message until every delivery
    that causally precedes it has happened. *)
type app_msg = {
  sender : Node_id.t;
  seq : int;
  origin : Node_id.t;
  local_id : int;
  vc : (Node_id.t * int) list;
  body : Payload.t;
}

let pp_app_msg ppf m =
  Format.fprintf ppf "%a/#%d(origin %a/#%d)" Node_id.pp m.sender m.seq Node_id.pp m.origin m.local_id

(** Message ordering discipline of a group: FIFO per sender, causal
    (vector-clock delayed), or total (coordinator-sequenced). *)
type ordering = Fifo | Causal | Total
