(* Reporting: severity policy, human (file:line:col) and JSON output.

   Severity policy (the "warnings-as-errors for lib/" promotion): a
   finding in library code is always an error; findings in executables
   and benchmarks are warnings unless --werror upgrades everything.
   The dune @lint-typed alias passes --werror, so any unsuppressed,
   non-baselined finding fails the build. *)

module Json = Plwg_obs.Json

let severity ~werror (f : Lint_rules.finding) =
  if werror || Lint_rules.under_lib f.file then Lint_rules.Error else Lint_rules.Warning

let severity_name = function Lint_rules.Error -> "error" | Lint_rules.Warning -> "warning"

(* Both emitters re-sort into the canonical (file, line, col, rule,
   message) order: callers filter findings through the baseline and
   suppression layers, and those must never be able to perturb report
   order. *)
let canonical findings = List.sort Lint_rules.compare_finding findings

let print_human oc ~werror findings =
  List.iter
    (fun (f : Lint_rules.finding) ->
      Printf.fprintf oc "%s:%d:%d: %s [%s] %s\n" f.file f.line f.col
        (severity_name (severity ~werror f))
        (Lint_rules.name f.rule) f.message)
    (canonical findings)

(* Per-rule counts in catalog order, zero-count rules omitted. *)
let summary findings =
  List.filter_map
    (fun rule ->
      let count = List.length (List.filter (fun (f : Lint_rules.finding) -> f.rule == rule) findings) in
      if count > 0 then Some (Lint_rules.name rule, count) else None)
    Lint_rules.all

let report_schema = "plwg-lint-report/1"

let to_json ~werror findings =
  let findings = canonical findings in
  Json.Obj
    [
      ("schema", Json.Str report_schema);
      ( "findings",
        Json.List
          (List.map
             (fun (f : Lint_rules.finding) ->
               Json.Obj
                 [
                   ("rule", Json.Str (Lint_rules.name f.rule));
                   ("file", Json.Str f.file);
                   ("line", Json.Int f.line);
                   ("col", Json.Int f.col);
                   ("severity", Json.Str (severity_name (severity ~werror f)));
                   ("source_line", Json.Str f.source_line);
                   ("message", Json.Str f.message);
                 ])
             findings) );
      ("summary", Json.Obj (List.map (fun (rule, count) -> (rule, Json.Int count)) (summary findings)));
    ]

let any_error ~werror findings = List.exists (fun f -> severity ~werror f == Lint_rules.Error) findings
