(* Discovery and loading of the [.cmt] files the analyses walk.

   dune leaves a cmt next to each cmo, under the library's
   [.<lib>.objs/byte/] directory (an executable's under
   [.<exe>.eobjs/byte/]), so the scan descends into dot-directories.
   The engine is normally run from an alias rule whose cwd is
   [_build/default] (where [lib/] holds both the objs dirs and — via
   the rule's source_tree dep — the sources for suppression comments
   and the interface check); when invoked from the project root
   instead, each root is also scanned under [_build/default/<root>]. *)

type intf = { i_sig : Typedtree.signature; i_text : string }

type unit_info = {
  u_unit : string;  (* short unit name: "Intern", "Engine" *)
  u_modname : string;  (* compilation unit name: "Plwg_util__Intern" *)
  u_source : string;  (* build-context-relative source: "lib/util/intern.ml" *)
  u_str : Typedtree.structure;
  u_text : string;  (* the source text; "" when the source is absent *)
  u_mli : bool;  (* an interface sits next to the source *)
  u_intf : intf option;  (* the interface, from the .cmti beside the .cmt *)
}

let rec cmts_under dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then cmts_under path acc
          else if Filename.check_suffix entry ".cmt" then path :: acc
          else acc)
        acc entries

let read_source file = try In_channel.with_open_bin file In_channel.input_all with Sys_error _ -> ""

(* dune writes [m.cmti] beside [m.cmt] for a module with an interface. *)
let load_intf path =
  match Cmt_format.read_cmt (path ^ "i") with
  | { cmt_annots = Cmt_format.Interface i_sig; cmt_sourcefile = Some mli; _ } ->
      Some { i_sig; i_text = read_source mli }
  | _ | (exception _) -> None

let load_unit path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some source
      (* The generated [Plwg_util.ml-gen] wrapper modules are pure
         alias lists; nothing to analyze. *)
        when not (Filename.check_suffix source ".ml-gen") ->
          Some
            {
              u_unit = Tlint_path.unit_of_modname cmt.cmt_modname;
              u_modname = cmt.cmt_modname;
              u_source = source;
              u_str = str;
              u_text = read_source source;
              u_mli = Sys.file_exists (source ^ "i");
              u_intf = load_intf path;
            }
      | _ -> None)

(* A source root holds the cmts directly when run from an alias rule
   (cwd = _build/default); from the project checkout they live under
   _build/default/<root> instead.  Scan whichever of the two exists —
   both, when both do; [load] drops the duplicates. *)
let resolve_root root =
  let fallback = Filename.concat (Filename.concat "_build" "default") root in
  List.filter (fun dir -> Sys.file_exists dir && Sys.is_directory dir) [ root; fallback ]

(* A root that yields no unit is an error, not an empty result: an
   executable's cmt is only written by [dune build @check], so a
   silently unlinted bin/ would otherwise pass. *)
let load ~roots =
  let rec go acc = function
    (* The same unit surfaces twice when roots overlap; keep one. *)
    | [] -> Ok (List.sort_uniq (fun a b -> String.compare a.u_source b.u_source) acc)
    | root :: rest -> (
        match List.filter_map load_unit (List.concat_map (fun dir -> cmts_under dir []) (resolve_root root)) with
        | [] -> Error (Printf.sprintf "no .cmt files under %s; build them first (dune build @check)" root)
        | units -> go (List.rev_append units acc) rest)
  in
  go [] roots

(* Library code ships an interface; executables and benchmarks need
   none. *)
let missing_mli u =
  if Lint_rules.under_lib u.u_source && not u.u_mli then
    let pos = { Lexing.pos_fname = u.u_source; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 } in
    Some
      ( Lint_rules.Missing_mli,
        { Location.loc_start = pos; loc_end = pos; loc_ghost = false },
        Printf.sprintf "module %s has no interface; add %si" u.u_unit u.u_source )
  else None
