(* The type-level groundwork shared by the typed rules: walk every
   type declaration in the analyzed units once, then answer two
   questions by fixpoint over the resulting graph.

   Protocol types — the seed set is everything declared in the protocol
   modules (vsync [Types.*], lwg [Messages.*], naming [Protocol.*])
   plus the extensible payload type [Payload.t] their wire constructors
   extend; a declared type *containing* a protocol type (a [Db.entry]
   holding a [Gid.t], a list of views, ...) is protocol too, so the
   poly-compare rule sees through one-level wrappers without needing an
   environment to expand abbreviations.

   Mutable-bearing types — a type with a mutable field, a builtin
   mutable container ([array], [bytes], [Stdlib.ref], [Hashtbl.t],
   ...), or any type whose definition mentions one.  A module-global
   binding of a mutable-bearing type roots shared state: that is the
   cell set the domain-safety report classifies. *)

module SSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Declaration collection                                              *)
(* ------------------------------------------------------------------ *)

type label_info = {
  l_name : string;
  l_mutable : bool;
  l_shared_reason : string option;  (* [@shared_cell "..."] on the label *)
  l_heads : SSet.t;  (* canonical heads anywhere in the label's type *)
  l_line : int;
}

type decl_info = {
  d_key : string;  (* canonical "Unit.sub.name" *)
  d_unit : string;
  d_file : string;
  d_line : int;
  d_components : SSet.t;  (* canonical heads anywhere in the definition *)
  d_labels : label_info list;  (* record labels, inline records included *)
}

(* Canonical heads of every [Tconstr] in a type expression.  Arrows are
   not traversed: a closure field neither carries protocol identity nor
   counts as an analyzable mutable cell.  The visited table breaks
   [-rectypes]-style cycles. *)
let heads_of_type ~unit ty =
  let acc = ref SSet.empty in
  let visited = Hashtbl.create 16 in
  let rec go ty =
    let id = Types.get_id ty in
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      match Types.get_desc ty with
      | Types.Tconstr (path, args, _) ->
          acc := SSet.add (Tlint_path.canon_in ~unit path) !acc;
          List.iter go args
      | Types.Ttuple tys -> List.iter go tys
      | Types.Tpoly (ty, _) -> go ty
      | _ -> ()
    end
  in
  go ty;
  !acc

let labels_of ~unit labels =
  List.map
    (fun (ld : Types.label_declaration) ->
      {
        l_name = Ident.name ld.ld_id;
        l_mutable = (match ld.ld_mutable with Asttypes.Mutable -> true | Asttypes.Immutable -> false);
        l_shared_reason = Tlint_attr.shared_cell ld.ld_attributes;
        l_heads = heads_of_type ~unit ld.ld_type;
        l_line = ld.ld_loc.Location.loc_start.Lexing.pos_lnum;
      })
    labels

(* Fold [f] over every structure item, descending into plain nested
   modules (and [include struct .. end]) with the module path tracked;
   functor bodies and applications are opaque. *)
let rec fold_items f path (str : Typedtree.structure) acc =
  List.fold_left
    (fun acc (item : Typedtree.structure_item) ->
      let acc = f ~path item acc in
      match item.str_desc with
      | Tstr_module mb -> fold_module_binding f path mb acc
      | Tstr_recmodule mbs -> List.fold_left (fun acc mb -> fold_module_binding f path mb acc) acc mbs
      | Tstr_include incl -> fold_module_expr f path incl.incl_mod acc
      | _ -> acc)
    acc str.str_items

and fold_module_binding f path (mb : Typedtree.module_binding) acc =
  let sub = match mb.mb_name.txt with Some name -> path @ [ name ] | None -> path in
  fold_module_expr f sub mb.mb_expr acc

and fold_module_expr f path (me : Typedtree.module_expr) acc =
  match me.mod_desc with
  | Tmod_structure str -> fold_items f path str acc
  | Tmod_constraint (me, _, _, _) -> fold_module_expr f path me acc
  | _ -> acc

(* Whether [fold_module_expr] descends into the module: its items are
   then walked directly. *)
let rec is_walked (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure _ -> true
  | Tmod_constraint (me, _, _, _) -> is_walked me
  | _ -> false

let collect_decls ~unit ~file (str : Typedtree.structure) =
  (* [line], when given, overrides the declaration's own lines: a type
     brought in by [include M] is reported at the include. *)
  let decl ?line ~path id (tdecl : Types.type_declaration) =
    let key = String.concat "." ((unit :: path) @ [ Ident.name id ]) in
    let labels, components =
      match tdecl.type_kind with
      | Types.Type_record (lds, _) ->
          let labels = labels_of ~unit lds in
          (labels, List.fold_left (fun acc l -> SSet.union l.l_heads acc) SSet.empty labels)
      | Types.Type_variant (cds, _) ->
          List.fold_left
            (fun (labels, components) (cd : Types.constructor_declaration) ->
              match cd.cd_args with
              | Types.Cstr_record lds ->
                  let more = labels_of ~unit lds in
                  ( labels @ more,
                    List.fold_left (fun acc l -> SSet.union l.l_heads acc) components more )
              | Types.Cstr_tuple tys ->
                  (labels, List.fold_left (fun acc ty -> SSet.union (heads_of_type ~unit ty) acc) components tys))
            ([], SSet.empty) cds
      | Types.Type_abstract | Types.Type_open -> ([], SSet.empty)
    in
    let components =
      match tdecl.type_manifest with
      | Some ty -> SSet.union (heads_of_type ~unit ty) components
      | None -> components
    in
    let labels = match line with Some l_line -> List.map (fun l -> { l with l_line }) labels | None -> labels in
    {
      d_key = key;
      d_unit = unit;
      d_file = file;
      d_line = (match line with Some line -> line | None -> tdecl.type_loc.Location.loc_start.Lexing.pos_lnum);
      d_components = components;
      d_labels = labels;
    }
  in
  List.rev
    (fold_items
       (fun ~path item acc ->
         match item.str_desc with
         | Tstr_type (_, tds) ->
             List.fold_left (fun acc (td : Typedtree.type_declaration) -> decl ~path td.typ_id td.typ_type :: acc) acc tds
         | Tstr_include incl when not (is_walked incl.incl_mod) ->
             let line = incl.incl_loc.Location.loc_start.Lexing.pos_lnum in
             List.fold_left
               (fun acc (item : Types.signature_item) ->
                 match item with Sig_type (id, tdecl, _, _) -> decl ~line ~path id tdecl :: acc | _ -> acc)
               acc incl.incl_type
         | _ -> acc)
       [] str [])

(* ------------------------------------------------------------------ *)
(* Fixpoints                                                           *)
(* ------------------------------------------------------------------ *)

let closure decls ~seed_mem =
  let set = ref SSet.empty in
  let in_set key = seed_mem key || SSet.mem key !set in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        if (not (SSet.mem d.d_key !set)) && SSet.exists in_set d.d_components then begin
          set := SSet.add d.d_key !set;
          changed := true
        end)
      decls
  done;
  !set

(* Protocol seed: declared in a protocol module, or the payload type
   the wire messages extend. *)
let protocol_seed key =
  String.starts_with ~prefix:"Types." key
  || String.starts_with ~prefix:"Messages." key
  || String.starts_with ~prefix:"Protocol." key
  || String.equal key "Payload.t"

let protocol_closure decls = closure decls ~seed_mem:protocol_seed

let is_protocol_key ~protocol key = protocol_seed key || SSet.mem key protocol

(* Builtin mutable containers, as canonical heads.  Only the
   [Stdlib.]-qualified spellings of the module-scoped containers are
   listed: a bare ["Hashtbl.t"]/["Stack.t"] canonical key would collide
   with this repo's own modules of those names. *)
let builtin_mutable = function
  | "array" | "bytes" | "floatarray" | "Stdlib.ref" | "Stdlib.Hashtbl.t" | "Stdlib.Buffer.t"
  | "Stdlib.Queue.t" | "Stdlib.Stack.t" | "Stdlib.Atomic.t" | "Stdlib.Bytes.t" | "Stdlib.Array.t"
  | "CamlinternalLazy.t" | "Stdlib.Lazy.t" | "lazy_t" ->
      true
  | _ -> false

let mutable_closure decls =
  let own_mutable = List.filter (fun d -> List.exists (fun l -> l.l_mutable) d.d_labels) decls in
  let own = List.fold_left (fun acc d -> SSet.add d.d_key acc) SSet.empty own_mutable in
  SSet.union own (closure decls ~seed_mem:(fun key -> builtin_mutable key || SSet.mem key own))

let key_is_mutable ~mutable_set key = builtin_mutable key || SSet.mem key mutable_set
let heads_mutable ~mutable_set heads = SSet.exists (key_is_mutable ~mutable_set) heads

(* ------------------------------------------------------------------ *)
(* Protocol witness                                                    *)
(* ------------------------------------------------------------------ *)

(* The first protocol type key inside [ty], if any: the evidence quoted
   by a typed poly-compare finding. *)
let protocol_witness ~protocol ~unit ty =
  let visited = Hashtbl.create 16 in
  let exception Found of string in
  let rec go ty =
    let id = Types.get_id ty in
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      match Types.get_desc ty with
      | Types.Tconstr (path, args, _) ->
          let key = Tlint_path.canon_in ~unit path in
          if is_protocol_key ~protocol key then raise (Found key);
          List.iter go args
      | Types.Ttuple tys -> List.iter go tys
      | Types.Tpoly (ty, _) -> go ty
      | _ -> ()
    end
  in
  match go ty with () -> None | exception Found key -> Some key
