(* The per-unit rule walk: every rule that judges one identifier,
   pattern or assignment at a time.

     hashtbl-iter-order, random-outside-rng, wall-clock
         a value whose canonical path is a banned stdlib function;
     poly-compare-protocol
         a polymorphic comparison or hash ({!Tlint_poly});
     gid-string-boundary
         [Gid.to_string]/[View_id.to_string] in lib/ outside the
         arguments of a trace, Logs or printer-registration call;
     runtime-boundary
         a value, type or module path through [Engine] outside lib/sim/
         and lib/runtime/;
     dispatch-wildcard
         a [match]/[function] with a catch-all that names some but not
         all constructors of a message family;
     lstate-mutation
         an assignment to a label of an lstate/lstatus/lflush record
         outside a [@@transition] binding.

   Paths are resolved through the unit's own module aliases before
   matching, so [module H = Hashtbl] does not hide [H.iter]. *)

module SSet = Tlint_types.SSet
module SMap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Message families                                                    *)
(* ------------------------------------------------------------------ *)

(* Constructors grouped by their prefix up to the first underscore:
   L_data and L_view share family "L_"; a name without an underscore is
   its own family.  A dispatch that names any constructor of a family
   and ends in a catch-all must name all of them — the catch-all is
   then only for foreign payloads.

   Two declaration forms feed the table: every extension constructor
   ([type Payload.t += ...]), and the constructors of an ordinary
   variant declared [@@message_family].  An annotated variant is keyed
   by its type name, not the prefix: its constructors may share a
   prefix with an unrelated extension family (lineage's L_continuous vs
   the payload L_* messages) and must not widen that family's
   obligation. *)
let family_prefix name = match String.index_opt name '_' with Some i -> String.sub name 0 (i + 1) | None -> name

let add_family ~fam name acc =
  SMap.update fam (fun set -> Some (SSet.add name (Option.value ~default:SSet.empty set))) acc

let collect_families acc (u : Tlint_load.unit_info) =
  Tlint_types.fold_items
    (fun ~path:_ (item : Typedtree.structure_item) acc ->
      match item.str_desc with
      | Tstr_typext te ->
          List.fold_left
            (fun acc (ec : Typedtree.extension_constructor) ->
              add_family ~fam:(family_prefix ec.ext_name.txt) ec.ext_name.txt acc)
            acc te.tyext_constructors
      | Tstr_type (_, tds) ->
          List.fold_left
            (fun acc (td : Typedtree.type_declaration) ->
              match td.typ_kind with
              | Ttype_variant cds when Tlint_attr.message_family td.typ_attributes ->
                  List.fold_left
                    (fun acc (cd : Typedtree.constructor_declaration) ->
                      add_family ~fam:td.typ_name.txt cd.cd_name.txt acc)
                    acc cds
              | _ -> acc)
            acc tds
      | _ -> acc)
    [] u.u_str acc

let rec is_wildcard : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (sub, _, _) -> is_wildcard sub
  | Tpat_or (a, b, _) -> is_wildcard a || is_wildcard b
  | Tpat_value v -> is_wildcard (v :> Typedtree.pattern)
  | _ -> false

let constructors p =
  let acc = ref SSet.empty in
  let f (type k) (p : k Typedtree.general_pattern) =
    match p.pat_desc with Tpat_construct (_, cd, _, _) -> acc := SSet.add cd.cstr_name !acc | _ -> ()
  in
  Typedtree.iter_general_pattern { f } p;
  !acc

let check_dispatch ~families add loc (cases : _ Typedtree.case list) =
  if List.exists (fun (c : _ Typedtree.case) -> Option.is_none c.c_guard && is_wildcard c.c_lhs) cases then begin
    let named =
      List.fold_left (fun acc (c : _ Typedtree.case) -> SSet.union (constructors c.c_lhs) acc) SSet.empty cases
    in
    SMap.iter
      (fun fam members ->
        let named_in_fam = SSet.inter members named in
        let missing = SSet.diff members named_in_fam in
        if not (SSet.is_empty named_in_fam || SSet.is_empty missing) then
          (* a trailing '_' marks a prefix family; anything else is a
             [@@message_family] type name *)
          let display = if String.ends_with ~suffix:"_" fam then fam ^ "*" else fam in
          add Lint_rules.Dispatch_wildcard loc
            (Printf.sprintf
               "dispatch on the %s message family has a catch-all but does not name: %s (the wildcard must only \
                cover foreign payloads)"
               display
               (String.concat ", " (SSet.elements missing))))
      families
  end

(* ------------------------------------------------------------------ *)
(* Rule tables                                                         *)
(* ------------------------------------------------------------------ *)

let hashtbl_iter_paths =
  [ "Stdlib.Hashtbl.iter"; "Stdlib.Hashtbl.fold"; "Stdlib.MoreLabels.Hashtbl.iter"; "Stdlib.MoreLabels.Hashtbl.fold" ]

let wall_clock_paths = [ "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime"; "Unix.localtime"; "Stdlib.Sys.time" ]

(* Inside the arguments of a trace-boundary call, ids may be rendered to
   strings (the renders are interned, and the thunks only run when the
   sink is enabled); everything else in lib/ keeps ids typed. *)
let gid_to_string_owner path =
  match List.rev (String.split_on_char '.' path) with
  | "to_string" :: (("Gid" | "View_id") as owner) :: _ -> Some owner
  | _ -> None

(* The only directories allowed to name the concrete scheduler: the sim
   that implements it and the runtime layer that wraps it.  Everything
   else must go through Plwg_runtime.Rt — the runtime-boundary rule. *)
let runtime_boundary_exempt file =
  match String.split_on_char '/' file with "lib" :: ("sim" | "runtime") :: _ -> true | _ -> false

let protected_type_names = [ "lstate"; "lstatus"; "lflush" ]

(* Whether a label's record type is an lstate-family type; the inline
   record of a variant constructor is typed [lstatus.Resolving]. *)
let rec protected_type : Path.t -> bool = function
  | Pextra_ty (p, Pcstr_ty _) -> protected_type p
  | p -> List.mem (Path.last p) protected_type_names

let protected_label (label : Types.label_description) =
  match Types.get_desc label.lbl_res with Tconstr (p, _, _) -> protected_type p | _ -> false

(* A unit's own module aliases ([module H = Hashtbl], and the local
   [let module E = Engine in ..]), keyed by the bound ident.  Resolving
   through them gives [H.iter] the path [Stdlib.Hashtbl.iter] without
   rebuilding an environment.  Opens need nothing: the typer already
   resolves [gettimeofday] under [open Unix] to [Unix.gettimeofday]. *)
let aliases (str : Typedtree.structure) =
  let acc = ref Ident.Map.empty in
  let add id (me : Typedtree.module_expr) =
    match (id, me.mod_desc) with Some id, Tmod_ident (path, _) -> acc := Ident.Map.add id path !acc | _ -> ()
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    add mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with Texp_letmodule (id, _, _, me, _) -> add id me | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with module_binding; expr } in
  iter.structure iter str;
  !acc

let rec resolve aliases (path : Path.t) : Path.t =
  match path with
  | Pident id -> (
      match Ident.Map.find_opt id aliases with Some target -> resolve aliases target | None -> path)
  | Pdot (p, s) -> Pdot (resolve aliases p, s)
  | Papply (f, a) -> Papply (resolve aliases f, resolve aliases a)
  | Pextra_ty (p, extra) -> Pextra_ty (resolve aliases p, extra)

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let check_unit ~families ~protocol (u : Tlint_load.unit_info) =
  let file = u.u_source and str = u.u_str in
  let aliases = aliases str in
  let canon path = Tlint_path.canon (resolve aliases path) in
  let acc = ref [] in
  let add rule loc message = acc := (file, rule, loc, message) :: !acc in
  let in_lib = Lint_rules.under_lib file in
  let in_rng = String.equal (Filename.basename file) "rng.ml" in
  let engine_ok = runtime_boundary_exempt file in
  let in_transition = ref false in
  let in_string_boundary = ref false in
  (* The function of the innermost application entered: the iterator
     visits it right after its application node. *)
  let head = ref None in
  let boundary loc path =
    if (not engine_ok) && List.mem "Engine" (String.split_on_char '.' path) then
      add Lint_rules.Runtime_boundary loc
        "direct Engine access outside lib/sim/ and lib/runtime/; reach the scheduler through Plwg_runtime.Rt"
  in
  let ident (e : Typedtree.expression) path =
    let loc = e.exp_loc in
    boundary loc path;
    let applied = match !head with Some h -> h == e | None -> false in
    Option.iter (add Lint_rules.Poly_compare_protocol loc) (Tlint_poly.check ~protocol ~unit:u.u_unit ~applied path e);
    (match gid_to_string_owner path with
    | Some owner when in_lib && not !in_string_boundary ->
        add Lint_rules.Gid_string_boundary loc
          (Printf.sprintf
             "%s.to_string outside the trace boundary; keep ids typed (%s.t or %s.code) and render only inside \
              Engine.trace thunks, Logs or Payload.register_printer"
             owner owner owner)
    | _ -> ());
    if List.mem path hashtbl_iter_paths then
      add Lint_rules.Hashtbl_iter_order loc
        (Printf.sprintf "%s visits bindings in unspecified order; use Plwg_util.Tbl with an explicit comparator" path)
    else if List.mem path wall_clock_paths then
      add Lint_rules.Wall_clock loc
        (Printf.sprintf "%s reads the wall clock; use simulated time (Plwg_sim.Time)" path)
    else if String.starts_with ~prefix:"Stdlib.Random." path && not in_rng then
      add Lint_rules.Random_outside_rng loc
        (Printf.sprintf "%s draws from ambient global state; draw from the schedule's Plwg_util.Rng" path)
  in
  let expr sub (e : Typedtree.expression) =
    let saved = !in_string_boundary in
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> ident e (canon path)
    | Texp_apply (fn, _) -> (
        head := Some fn;
        match fn.exp_desc with
        | Texp_ident (path, _, _) when Tlint_path.is_trace_boundary (canon path) -> in_string_boundary := true
        | _ -> ())
    | Texp_match (_, cases, _) -> check_dispatch ~families add e.exp_loc cases
    | Texp_function { cases; _ } -> check_dispatch ~families add e.exp_loc cases
    | Texp_setfield (_, _, label, _) when protected_label label && not !in_transition ->
        add Lint_rules.Lstate_mutation e.exp_loc
          (Printf.sprintf
             "lstate field %s mutated outside a designated transition (mark the enclosing top-level function \
              [@@transition])"
             label.lbl_name)
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e;
    in_string_boundary := saved
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let saved = !in_transition in
    if Tlint_attr.transition vb.vb_attributes then in_transition := true;
    Tast_iterator.default_iterator.value_binding sub vb;
    in_transition := saved
  in
  let typ sub (ct : Typedtree.core_type) =
    (match ct.ctyp_desc with Ttyp_constr (path, _, _) -> boundary ct.ctyp_loc (canon path) | _ -> ());
    Tast_iterator.default_iterator.typ sub ct
  in
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.mod_desc with Tmod_ident (path, _) -> boundary me.mod_loc (canon path) | _ -> ());
    Tast_iterator.default_iterator.module_expr sub me
  in
  let iter = { Tast_iterator.default_iterator with expr; value_binding; typ; module_expr } in
  iter.structure iter str;
  List.rev !acc

let check ~protocol units =
  let families = List.fold_left collect_families SMap.empty units in
  List.concat_map (check_unit ~families ~protocol) units
