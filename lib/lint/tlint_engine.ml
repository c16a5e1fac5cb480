(* The analysis engine: load every cmt under the roots, run the rule
   catalog over the typedtrees (the identifier walk, hot-path
   allocation, missing interfaces, unused exports, and the
   domain-safety ownership analysis of lib/), honor the inline
   suppression comments, and return findings in the catalog's
   canonical order plus the domain-safety cell table. *)

module SMap = Map.Make (String)

type result_bundle = {
  findings : Lint_rules.finding list;
  cells : Tlint_domain.cell list;
  units : int;  (* cmt units analyzed *)
  hot_bindings : int;  (* [@@zero_alloc_hot] bindings checked *)
}

(* Source text, of the .ml and of the .mli, is needed for two things
   the cmt does not carry: the suppression comments, and the finding's
   [source_line] baseline key.
   A unit whose source file is not present (cmt without source tree)
   still gets findings, just with an empty source line and no
   suppressions.  Only units with raw findings are scanned. *)
type source = { s_suppress : Lint_suppress.t; s_lines : string array }

let source_of text =
  { s_suppress = Lint_suppress.of_source text; s_lines = Array.of_list (String.split_on_char '\n' text) }

let finding sources file (rule, (loc : Location.t), message) =
  let src = Lazy.force (SMap.find file sources) in
  let line = loc.loc_start.Lexing.pos_lnum in
  let col = loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol in
  let source_line =
    if line >= 1 && line <= Array.length src.s_lines then String.trim src.s_lines.(line - 1) else ""
  in
  if Lint_suppress.allows src.s_suppress ~line (Lint_rules.name rule) then None
  else Some { Lint_rules.rule; file; line; col; source_line; message }

let analyze (units : Tlint_load.unit_info list) =
  let sources =
    List.fold_left
      (fun acc (u : Tlint_load.unit_info) ->
        let acc = SMap.add u.u_source (lazy (source_of u.u_text)) acc in
        match u.u_intf with
        | Some intf -> SMap.add (u.u_source ^ "i") (lazy (source_of intf.i_text)) acc
        | None -> acc)
      SMap.empty units
  in
  let decls =
    List.concat_map
      (fun (u : Tlint_load.unit_info) -> Tlint_types.collect_decls ~unit:u.u_unit ~file:u.u_source u.u_str)
      units
  in
  let protocol = Tlint_types.protocol_closure decls in
  let per_unit =
    List.concat_map
      (fun (u : Tlint_load.unit_info) ->
        let raw = Option.to_list (Tlint_load.missing_mli u) @ Tlint_alloc.check u.u_str in
        List.filter_map (finding sources u.u_source) raw)
      units
  in
  (* The domain-safety report maps the library's cells ahead of the
     parallel backend; executables and benchmarks are not part of it. *)
  let cells, domain_raw =
    Tlint_domain.analyze (List.filter (fun (u : Tlint_load.unit_info) -> Lint_rules.under_lib u.u_source) units)
  in
  let cross_unit =
    List.filter_map
      (fun (file, rule, loc, message) -> finding sources file (rule, loc, message))
      (Tlint_walk.check ~protocol units @ domain_raw @ Tlint_export.check units)
  in
  let findings = List.sort Lint_rules.compare_finding (per_unit @ cross_unit) in
  let hot_bindings =
    List.fold_left
      (fun acc (u : Tlint_load.unit_info) -> acc + List.length (Tlint_alloc.hot_bindings u.u_str))
      0 units
  in
  { findings; cells; units = List.length units; hot_bindings }

let run ~roots = Result.map analyze (Tlint_load.load ~roots)
