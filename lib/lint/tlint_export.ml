(* unused-export: a [val] or [external] in a lib/ interface that no
   other unit outside test/ references.  A reference is an identifier,
   resolved through the referencing unit's own module aliases, or a
   module used whole: an [include] uses every value, a coercion (a
   first-class [(module M)] pack is one) or a functor argument the
   values of the signature it is used at, or every value when that
   signature is not among the analyzed units.

   Keys are dotted paths headed by the compilation unit
   ([Plwg_obs__Metrics.percentile]), so same-named units of two
   libraries stay apart; a head local to a unit is qualified with the
   unit's own name, and ["M.*"] stands for every value of [M]. *)

module SSet = Tlint_types.SSet
module SMap = Map.Make (String)

(* A library qualifier collapses into the unit it aliases:
   [Plwg_obs.Metrics] and [Plwg_obs__.Metrics] are [Plwg_obs__Metrics]. *)
let rec normalize units = function
  | a :: b :: rest when SSet.mem (a ^ "__" ^ b) units -> normalize units ((a ^ "__" ^ b) :: rest)
  | a :: b :: rest when String.ends_with ~suffix:"__" a && SSet.mem (a ^ b) units -> normalize units ((a ^ b) :: rest)
  | components -> components

let rec components ~self : Path.t -> string list option = function
  | Pident id -> Some (if Ident.persistent id then [ Ident.name id ] else [ self; Ident.name id ])
  | Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (components ~self p)
  | Papply _ | Pextra_ty _ -> None

(* Every module type the units declare, by key. *)
let modtypes (units : Tlint_load.unit_info list) =
  List.fold_left
    (fun acc (u : Tlint_load.unit_info) ->
      Tlint_types.fold_items
        (fun ~path (item : Typedtree.structure_item) acc ->
          match item.str_desc with
          | Tstr_modtype { mtd_name; mtd_type = Some mty; _ } ->
              SMap.add (String.concat "." ((u.u_modname :: path) @ [ mtd_name.txt ])) mty.mty_type acc
          | _ -> acc)
        [] u.u_str acc)
    SMap.empty units

(* The values a module type holds, as dotted names relative to it. *)
let rec names_of ~lookup (mty : Types.module_type) =
  match mty with
  | Mty_signature sg ->
      List.concat_map
        (function
          | Types.Sig_value (id, _, _) -> [ Ident.name id ]
          | Sig_module (id, _, md, _, _) -> List.map (fun n -> Ident.name id ^ "." ^ n) (names_of ~lookup md.md_type)
          | _ -> [])
        sg
  | Mty_ident p -> ( match lookup p with Some mty -> names_of ~lookup mty | None -> [ "*" ])
  | Mty_alias _ -> [ "*" ]
  | Mty_functor _ -> []

(* Every key one unit references. *)
let references ~units ~modtypes (u : Tlint_load.unit_info) =
  let aliases = Tlint_path.aliases u.u_str in
  let key path =
    Option.map
      (fun c -> String.concat "." (normalize units c))
      (components ~self:u.u_modname (Tlint_path.resolve aliases path))
  in
  let lookup p = Option.bind (key p) (fun k -> SMap.find_opt k modtypes) in
  let acc = ref SSet.empty in
  let add k = acc := SSet.add k !acc in
  let use_whole (me : Typedtree.module_expr) names =
    match me.mod_desc with
    | Tmod_ident (path, _) -> Option.iter (fun k -> List.iter (fun n -> add (k ^ "." ^ n)) (names ())) (key path)
    | _ -> ()
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with Texp_ident (path, _, _) -> Option.iter add (key path) | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let module_expr sub (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_apply (fn, arg, _) ->
        (* An alias argument arrives constrained to its own module type;
           it is used at the functor's parameter only. *)
        let arg = match arg.mod_desc with Tmod_constraint (inner, _, Tmodtype_implicit, _) -> inner | _ -> arg in
        use_whole arg (fun () ->
            match fn.mod_type with Mty_functor (Named (_, param), _) -> names_of ~lookup param | _ -> [ "*" ]);
        sub.Tast_iterator.module_expr sub fn;
        sub.module_expr sub arg
    | Tmod_constraint (inner, mty, _, _) ->
        use_whole inner (fun () -> names_of ~lookup mty);
        Tast_iterator.default_iterator.module_expr sub me
    | _ -> Tast_iterator.default_iterator.module_expr sub me
  in
  let structure_item sub (item : Typedtree.structure_item) =
    (match item.str_desc with Tstr_include incl -> use_whole incl.incl_mod (fun () -> [ "*" ]) | _ -> ());
    Tast_iterator.default_iterator.structure_item sub item
  in
  let iter = { Tast_iterator.default_iterator with expr; module_expr; structure_item } in
  iter.structure iter u.u_str;
  !acc

(* The values an interface exports, as dotted paths below the unit,
   nested [module M : sig .. end] included. *)
let rec exports prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix @ [ vd.val_name.txt ], vd) ]
      | Tsig_module { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature sub; _ }; _ } ->
          exports (prefix @ [ name ]) sub
      | _ -> [])
    sg.sig_items

(* Whether a unit other than [self] references [Unit.a.v]: by name, or
   through a whole use of [Unit] or [Unit.a]. *)
let used_outside users ~self path =
  let by key = match SMap.find_opt key users with Some s -> not (SSet.is_empty (SSet.remove self s)) | None -> false in
  let rec go prefix = function
    | [] -> false
    | [ last ] -> by (prefix ^ last)
    | c :: rest -> by (prefix ^ c ^ ".*") || go (prefix ^ c ^ ".") rest
  in
  go "" path

let under_test path = match String.split_on_char '/' path with "test" :: _ -> true | _ -> false

let check_unit users (u : Tlint_load.unit_info) (intf : Tlint_load.intf) =
  List.filter_map
    (fun (path, (vd : Typedtree.value_description)) ->
      let name = String.concat "." (u.u_unit :: path) in
      let used = used_outside users ~self:u.u_modname (u.u_modname :: path) in
      let message =
        match (Tlint_attr.test_support vd.val_attributes, used) with
        | Some "", _ -> Some (name ^ ": [@@test_support] needs a reason")
        | Some _, true -> Some (name ^ " is annotated [@@test_support] but the system references it; drop the annotation")
        | None, false ->
            Some
              (name
             ^ " is referenced by no other unit outside tests; delete it, drop it from the interface, or annotate a \
                test hook or application API [@@test_support \"reason\"]")
        | Some _, false | None, true -> None
      in
      Option.map (fun message -> (u.u_source ^ "i", Lint_rules.Unused_export, vd.val_loc, message)) message)
    (exports [] intf.i_sig)

let check units =
  let units = List.filter (fun (u : Tlint_load.unit_info) -> not (under_test u.u_source)) units in
  let names = SSet.of_list (List.map (fun (u : Tlint_load.unit_info) -> u.u_modname) units) in
  let modtypes = modtypes units in
  let add_user (u : Tlint_load.unit_info) key users =
    SMap.update key (fun s -> Some (SSet.add u.u_modname (Option.value ~default:SSet.empty s))) users
  in
  let users =
    List.fold_left (fun users u -> SSet.fold (add_user u) (references ~units:names ~modtypes u) users) SMap.empty units
  in
  List.concat_map
    (fun (u : Tlint_load.unit_info) ->
      match u.u_intf with Some intf when Lint_rules.under_lib u.u_source -> check_unit users u intf | _ -> [])
    units
