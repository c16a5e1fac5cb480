(** Type-level groundwork shared by the typed rules: one pass over the
    analyzed units' type declarations, then fixpoints answering "is
    this a protocol type?" and "is this type mutable-bearing?". *)

module SSet : Set.S with type elt = string

type label_info = {
  l_name : string;
  l_mutable : bool;
  l_shared_reason : string option;  (** [@shared_cell "..."] on the label *)
  l_heads : SSet.t;  (** canonical heads anywhere in the label's type *)
  l_line : int;
}

type decl_info = {
  d_key : string;  (** canonical ["Unit.sub.name"] *)
  d_unit : string;
  d_file : string;
  d_line : int;
  d_components : SSet.t;  (** canonical heads anywhere in the definition *)
  d_labels : label_info list;  (** record labels, inline records included *)
}

val heads_of_type : unit:string -> Types.type_expr -> SSet.t
(** Canonical heads of every [Tconstr] in the type; arrows are not
    traversed. *)

val fold_items :
  (path:string list -> Typedtree.structure_item -> 'a -> 'a) ->
  string list ->
  Typedtree.structure ->
  'a ->
  'a
(** Fold over every structure item, descending into plain nested
    modules and [include struct .. end]; functors are opaque. *)

val collect_decls : unit:string -> file:string -> Typedtree.structure -> decl_info list
(** Every type the unit declares, in the items {!fold_items} walks, plus
    the types an [include] of any other module brings in, keyed under
    the including unit and reported at the [include]. *)

val protocol_closure : decl_info list -> SSet.t
(** Declared types containing a protocol type, by fixpoint from the
    protocol-module seed (Types.*, Messages.*, Protocol.*, Payload.t). *)

val protocol_witness : protocol:SSet.t -> unit:string -> Types.type_expr -> string option
(** First protocol type key occurring inside the type, if any. *)

val mutable_closure : decl_info list -> SSet.t
(** Declared types that are mutable-bearing: own mutable field, or
    definition mentioning a builtin mutable container or another
    mutable-bearing type. *)

val heads_mutable : mutable_set:SSet.t -> SSet.t -> bool
