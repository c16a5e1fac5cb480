(* Canonical names for compiler-libs [Path.t]s across compilation
   units.  The same type reaches a cmt under several spellings —
   [Plwg_vsync.Types.Gid.t] through the wrapper alias from another
   library, [Plwg_vsync__Types.Gid.t] mangled from a sibling module,
   bare [Gid.t] inside types.ml itself — and the analyses need one key
   for all of them.  Canonical form: wrapper-library components
   dropped, mangled [Lib__Module] components shortened to [Module],
   and unit-local heads qualified with the unit's short name, so every
   spelling above becomes ["Types.Gid.t"]. *)

let shorten component =
  let n = String.length component in
  let rec last_sep i best = if i + 2 > n then best else last_sep (i + 1) (if component.[i] = '_' && component.[i + 1] = '_' then Some i else best) in
  match last_sep 0 None with
  | Some i when i + 2 < n -> String.sub component (i + 2) (n - i - 2)
  | Some _ | None -> component

(* Wrapper modules of the repo's own libraries: a path component that
   *is* one of these is pure qualification noise.  (A mangled
   [Plwg_util__Itbl] is handled by [shorten], not this list.) *)
let is_wrapper = function
  | "Plwg" | "Plwg_util" | "Plwg_obs" | "Plwg_sim" | "Plwg_transport" | "Plwg_detector" | "Plwg_vsync"
  | "Plwg_naming" | "Plwg_harness" | "Plwg_lint" ->
      true
  | _ -> false

(* Types predeclared by the compiler: a bare head that is one of these
   is global, not unit-local, and must not be qualified. *)
let is_builtin = function
  | "int" | "char" | "string" | "bytes" | "float" | "bool" | "unit" | "exn" | "array" | "list" | "option"
  | "nativeint" | "int32" | "int64" | "lazy_t" | "extension_constructor" | "floatarray" ->
      true
  | _ -> false

let canon_components path =
  let segments = String.split_on_char '.' (Path.name path) in
  List.filter_map
    (fun c ->
      let c = shorten c in
      if is_wrapper c then None else Some c)
    segments

let canon path = String.concat "." (canon_components path)

(* Canonical name of a path that may be unit-local ([lineage] inside
   messages.ml must key as ["Messages.lineage"], like every external
   spelling of it). *)
let canon_in ~unit path =
  match canon_components path with
  | [ single ] when not (is_builtin single) -> unit ^ "." ^ single
  | components -> String.concat "." components

(* Short unit name of a [cmt_modname]: ["Plwg_util__Intern"] is unit
   ["Intern"]; an unwrapped unit like ["Lint_rules"] is itself. *)
let unit_of_modname modname = shorten modname

(* The trace/log boundary: calls whose arguments only run, or only
   render, when a sink is enabled — [Logs.*], any [trace], and payload
   printer registration. *)
let is_trace_boundary name =
  String.starts_with ~prefix:"Logs." name
  || match List.rev (String.split_on_char '.' name) with ("trace" | "register_printer") :: _ -> true | _ -> false
