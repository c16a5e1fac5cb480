(* Hot-path allocation check: a binding marked [@@zero_alloc_hot] must
   not allocate on its own steady-state path.

   The check is intraprocedural and walks the typed body for
   syntactically allocating constructs: closures, non-constant
   constructors, tuples, records, non-empty array literals, lazy
   values, partial applications (whose instantiated result is still an
   arrow), and calls to a known-allocating stdlib set.  Float boxing is
   not modeled.

   The leading parameter spine — the curried [fun]/[function] chain
   that gives the binding its arity — is evaluated once at definition
   time, so it is stripped, cases and guards becoming the bodies to
   check.  Audited escape hatches, skipped wholesale:

     - any subtree annotated [@alloc_ok "reason"] (cold branches:
       pool growth, freeze paths);
     - arguments of the raise family ([raise]/[failwith]/
       [invalid_arg]) — failure paths may build exceptions;
     - [assert] payloads;
     - arguments of a trace-boundary call ({!Tlint_path.is_trace_boundary})
       — their thunks only run when tracing or logging is enabled. *)

let raise_family = function
  | "Stdlib.raise" | "Stdlib.raise_notrace" | "Stdlib.failwith" | "Stdlib.invalid_arg" -> true
  | _ -> false

let known_alloc = function
  | "Stdlib.@" | "Stdlib.^" | "Stdlib.ref" | "Stdlib.string_of_int" | "Stdlib.string_of_float"
  | "Stdlib.List.map" | "Stdlib.List.rev" | "Stdlib.List.append" | "Stdlib.List.concat"
  | "Stdlib.List.filter" | "Stdlib.List.init" | "Stdlib.List.sort" | "Stdlib.List.rev_append"
  | "Stdlib.Array.make" | "Stdlib.Array.init" | "Stdlib.Array.of_list" | "Stdlib.Array.to_list"
  | "Stdlib.Array.append" | "Stdlib.Array.copy" | "Stdlib.Array.sub"
  | "Stdlib.Bytes.create" | "Stdlib.Bytes.make" | "Stdlib.Bytes.sub"
  | "Stdlib.String.concat" | "Stdlib.String.sub" | "Stdlib.String.make" | "Stdlib.String.init"
  | "Stdlib.Printf.sprintf" | "Stdlib.Format.asprintf"
  | "Stdlib.Hashtbl.create" | "Stdlib.Buffer.create" | "Stdlib.Buffer.contents"
  | "Stdlib.Queue.create" ->
      true
  | _ -> false

let head_canon (e : Typedtree.expression) =
  match e.exp_desc with Texp_ident (path, _, _) -> Some (Tlint_path.canon path) | _ -> None

let rec arity ty n =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, rest, _) -> arity rest (n + 1)
  | Types.Tpoly (ty, _) -> arity ty n
  | _ -> n

(* Partial application: fewer arguments than the head's *generic*
   arity.  The generic scheme (the ident's value description), not the
   instantiated type, is what distinguishes [List.mem x] (arity 2, one
   argument: allocates a closure) from [handlers.(i) ~src payload]
   ([Array.get]'s generic arity is 2; the arrow in its instantiated
   result is the fetched element's own type, no allocation). *)
let is_partial (head : Typedtree.expression) args =
  let generic =
    match head.exp_desc with Texp_ident (_, _, vd) -> vd.Types.val_type | _ -> head.exp_type
  in
  List.length args < arity generic 0

(* The bodies a [@@zero_alloc_hot] binding must keep allocation-free:
   strip the leading parameter spine; every case body and guard of it
   is a check target. *)
let rec bodies (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.concat_map
        (fun (c : Typedtree.value Typedtree.case) ->
          (match c.c_guard with Some g -> [ g ] | None -> []) @ bodies c.c_rhs)
        cases
  | _ -> [ e ]

let check_body ~fn body =
  let acc = ref [] in
  let flag loc what =
    let message = Printf.sprintf "allocation in [@@zero_alloc_hot] %s: %s" fn what in
    acc := (Lint_rules.Hot_path_alloc, loc, message) :: !acc
  in
  let expr sub (e : Typedtree.expression) =
    if not (Tlint_attr.alloc_ok e.exp_attributes) then
      match e.exp_desc with
      | Texp_assert _ -> ()
      | Texp_apply (head, _)
        when match head_canon head with Some c -> raise_family c || Tlint_path.is_trace_boundary c | None -> false ->
          ()
      | Texp_function _ -> flag e.exp_loc "closure allocation"
      | _ ->
          (match e.exp_desc with
          | Texp_construct (lid, _, _ :: _) ->
              flag e.exp_loc (Printf.sprintf "constructor %s allocates" (String.concat "." (Longident.flatten lid.txt)))
          | Texp_variant (label, Some _) -> flag e.exp_loc (Printf.sprintf "variant `%s allocates" label)
          | Texp_tuple _ -> flag e.exp_loc "tuple allocation"
          | Texp_record _ -> flag e.exp_loc "record allocation"
          | Texp_array (_ :: _) -> flag e.exp_loc "array literal allocation"
          | Texp_lazy _ -> flag e.exp_loc "lazy allocation"
          | Texp_apply (head, args) ->
              (match head_canon head with
              | Some c when known_alloc c -> flag e.exp_loc (Printf.sprintf "call to allocating %s" c)
              | _ -> ());
              if is_partial head args then flag e.exp_loc "partial application allocates a closure"
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter body;
  List.rev !acc

type hot = { h_name : string; h_loc : Location.t }

let hot_of_vb (vb : Typedtree.value_binding) =
  if Tlint_attr.zero_alloc_hot vb.vb_attributes then
    match vb.vb_pat.pat_desc with
    (* [Tpat_alias]: a type-constrained [let f : T = ...]. *)
    | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Some ({ h_name = Ident.name id; h_loc = vb.vb_loc }, vb.vb_expr)
    | _ -> None
  else None

let check (str : Typedtree.structure) =
  let hots =
    Tlint_types.fold_items
      (fun ~path:_ (item : Typedtree.structure_item) acc ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.fold_left (fun acc vb -> match hot_of_vb vb with Some h -> h :: acc | None -> acc) acc vbs
        | _ -> acc)
      [] str []
  in
  List.concat_map
    (fun ({ h_name; _ }, expr) -> List.concat_map (check_body ~fn:h_name) (bodies expr))
    (List.rev hots)

(* The annotated bindings themselves, for coverage listings. *)
let hot_bindings (str : Typedtree.structure) =
  Tlint_types.fold_items
    (fun ~path:_ (item : Typedtree.structure_item) acc ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.fold_left (fun acc vb -> match hot_of_vb vb with Some (h, _) -> h :: acc | None -> acc) acc vbs
      | _ -> acc)
    [] str []
  |> List.rev
