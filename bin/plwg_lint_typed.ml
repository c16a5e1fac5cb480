(* plwg-lint-typed driver: walks the compiled .cmt typedtrees and
   enforces the determinism and protocol-invariant rule catalog in
   Lint_rules, and writes or checks the domain-safety report.

     dune exec bin/plwg_lint_typed.exe -- [ROOTS...] [options]

   The roots are source roots ("lib"); when a root has no cmts (run
   from the project checkout rather than an alias rule) the engine
   looks under _build/default/<root>, so the tree must have been built
   first (dune build @check writes every executable's cmt too).

   Exit codes: 0 clean (possibly with warnings), 1 findings at error
   severity (anything under lib/, or anything at all with --werror), a
   stale baseline entry or a stale domain-safety report, 2
   usage/environment errors. *)

open Cmdliner

let roots_arg =
  let doc = "Source roots whose .cmt files to analyze." in
  Arg.(value & pos_all string [ "lib"; "bin"; "bench"; "examples"; "benchmark" ] & info [] ~docv:"ROOT" ~doc)

let baseline_arg =
  let doc = "Baseline file of grandfathered findings (plwg-lint-baseline/1)." in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let update_baseline_arg =
  Arg.(value & flag & info [ "update-baseline" ] ~doc:"Rewrite the baseline to exactly the current findings and exit.")

let format_arg =
  let doc = "Output format: human or json." in
  Arg.(value & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human & info [ "format" ] ~docv:"FMT" ~doc)

let werror_arg = Arg.(value & flag & info [ "werror" ] ~doc:"Treat every finding as an error (the @lint-typed alias does).")

let list_rules_arg = Arg.(value & flag & info [ "list-rules" ] ~doc:"Print the rule catalog and exit.")

let domain_out_arg =
  let doc = "Write the domain-safety cell report (plwg-domain-safety/1) to $(docv) and continue." in
  Arg.(value & opt (some string) None & info [ "domain-safety" ] ~docv:"FILE" ~doc)

let domain_check_arg =
  let doc = "Fail unless $(docv) is byte-identical to the freshly computed domain-safety report." in
  Arg.(value & opt (some string) None & info [ "check-domain-safety" ] ~docv:"FILE" ~doc)

let fail msg =
  prerr_endline ("plwg-lint-typed: " ^ msg);
  2

let list_rules () =
  List.iter
    (fun rule -> Printf.printf "%-24s %s\n" (Lint_rules.name rule) (Lint_rules.describe rule))
    Lint_rules.all;
  0

(* Write the domain-safety report and/or check the checked-in one;
   true when the checked-in report is stale. *)
let domain_report (r : Tlint_engine.result_bundle) domain_out domain_check =
  let report = Tlint_domain.render r.cells in
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc report);
      Printf.printf "plwg-lint-typed: wrote %d cell(s) to %s\n" (List.length r.cells) file)
    domain_out;
  match domain_check with
  | None -> false
  | Some file -> (
      match In_channel.with_open_bin file In_channel.input_all with
      | exception Sys_error msg ->
          Printf.eprintf "plwg-lint-typed: cannot read %s: %s\n" file msg;
          true
      | actual when String.equal actual report -> false
      | _ ->
          Printf.eprintf "plwg-lint-typed: %s is stale; regenerate with --domain-safety %s\n" file file;
          true)

let report (r : Tlint_engine.result_bundle) ~format ~werror ~baseline ~stale_report =
  let unmasked, stale = Lint_baseline.apply baseline r.findings in
  (match format with
  | `Human ->
      Lint_report.print_human stdout ~werror unmasked;
      let masked = List.length r.findings - List.length unmasked in
      Printf.printf "plwg-lint-typed: %d unit(s), %d hot binding(s), %d cell(s), %d finding(s)%s%s\n" r.units
        r.hot_bindings (List.length r.cells) (List.length unmasked)
        (if masked > 0 then Printf.sprintf " (%d baselined)" masked else "")
        (match Lint_report.summary unmasked with
        | [] -> ""
        | counts -> ": " ^ String.concat ", " (List.map (fun (rule, n) -> Printf.sprintf "%s %d" rule n) counts))
  | `Json -> print_endline (Plwg_obs.Json.to_string (Lint_report.to_json ~werror unmasked)));
  List.iter
    (fun (e : Lint_baseline.entry) ->
      Printf.eprintf "plwg-lint-typed: stale baseline entry (fixed? prune it): [%s] %s: %S\n" e.rule e.file
        e.source_line)
    stale;
  if Lint_report.any_error ~werror unmasked || stale <> [] || stale_report then 1 else 0

let run roots baseline_file update_baseline format werror do_list_rules domain_out domain_check =
  if do_list_rules then list_rules ()
  else
    match (Tlint_engine.run ~roots, baseline_file, update_baseline) with
    | Error msg, _, _ -> fail msg
    | Ok _, None, true -> fail "--update-baseline requires --baseline FILE"
    | Ok r, Some file, true ->
        let entries =
          List.map (fun f -> Lint_baseline.entry_of_finding f ~reason:"grandfathered by --update-baseline") r.findings
        in
        Lint_baseline.save file entries;
        Printf.printf "plwg-lint-typed: wrote %d finding(s) to %s\n" (List.length entries) file;
        0
    | Ok r, _, false -> (
        match Option.fold ~none:(Ok []) ~some:Lint_baseline.load baseline_file with
        | Error msg -> fail msg
        | Ok baseline ->
            let stale_report = domain_report r domain_out domain_check in
            report r ~format ~werror ~baseline ~stale_report)

let cmd =
  let doc = "Determinism & protocol-invariant linter for the plwg tree (cmt-based)." in
  Cmd.v
    (Cmd.info "plwg_lint_typed" ~doc)
    Term.(
      const run $ roots_arg $ baseline_arg $ update_baseline_arg $ format_arg $ werror_arg $ list_rules_arg
      $ domain_out_arg $ domain_check_arg)

let () = exit (Cmd.eval' cmd)
