(* plwg-lint rule catalog exercised against small fixtures: every rule
   must fire on a minimal offender, stay quiet on the blessed
   alternative, honor inline suppressions, and the baseline must mask
   exactly its recorded findings.

   Fixtures are typechecked in-process (against the stdlib, plus the
   unix library for the wall-clock cases) and linted by the same engine
   that walks the tree's cmts.  The repo's own modules a fixture names
   are declared locally as stubs: [Engine], [Rt], [Payload], [Gid],
   [Logs], ... — the rules key on canonical paths, and a local
   [module Engine] yields the same ["Engine.send"] as the real one. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let rules_of findings = List.map (fun (f : Lint_rules.finding) -> Lint_rules.name f.rule) findings

let initial_env () =
  ignore (Warnings.parse_options false "-a");
  Clflags.include_dirs := [ "+unix" ];
  Compmisc.init_path ();
  Compmisc.initial_env ()

let typecheck_in env source =
  let str, _, _, _, env = Typemod.type_structure env (Parse.implementation (Lexing.from_string source)) in
  (str, env)

let typecheck source = fst (typecheck_in (initial_env ()) source)

let unit_of ?(path = "lib/fixture/fixture.ml") ?(has_mli = true) ?intf str source =
  let unit = String.capitalize_ascii (Filename.remove_extension (Filename.basename path)) in
  {
    Tlint_load.u_unit = unit;
    u_modname = unit;
    u_source = path;
    u_str = str;
    u_text = source;
    u_mli = has_mli;
    u_intf = intf;
  }

let fixture ?path ?has_mli source = unit_of ?path ?has_mli (typecheck source) source
let lint ?path ?has_mli source = (Tlint_engine.analyze [ fixture ?path ?has_mli source ]).findings

let check_fires rule source () =
  let found = rules_of (lint source) in
  Alcotest.(check bool) (rule ^ " fires") true (List.mem rule found)

let check_quiet ?path source () = Alcotest.(check (list string)) "no findings" [] (rules_of (lint ?path source))

(* Local stand-ins for the repo modules the fixtures name. *)
let engine_stub =
  "module Engine = struct\n\
  \  type t = unit\n\
  \  let send (_ : t) ~src:(_ : int) ~dst:(_ : int) (_ : int) = ()\n\
  \  let now (_ : t) = 0\n\
   end\n"

let payload_stub = "module Payload = struct\n  type t = ..\n  let register_printer (_ : t -> string option) = ()\nend\n"
let gid_stub = "module Gid = struct\n  type t = int\n  let compare = Int.compare\n  let to_string = string_of_int\nend\n"

(* ---------------- determinism rules ---------------- *)

let hashtbl_iter_fires = check_fires "hashtbl-iter-order" "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl"
let hashtbl_fold_fires = check_fires "hashtbl-iter-order" "let f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl []"

let tbl_sorted_quiet =
  check_quiet
    {|
module Tbl = struct
  let iter_sorted ~cmp f tbl =
    List.iter (fun (k, v) -> f k v) (List.sort (fun (a, _) (b, _) -> cmp a b) (List.of_seq (Hashtbl.to_seq tbl)))
end
let f tbl = Tbl.iter_sorted ~cmp:String.compare (fun _ _ -> ()) tbl
|}

let random_fires = check_fires "random-outside-rng" "let f () = Random.int 6"
let random_inside_rng_quiet = check_quiet ~path:"lib/util/rng.ml" "let f () = Random.int 6"
let wall_clock_fires = check_fires "wall-clock" "let f () = Unix.gettimeofday ()"
let sys_time_fires = check_fires "wall-clock" "let f () = Sys.time ()"

(* Value-position [compare] and [Hashtbl.hash] fire at any type;
   applied [=]/[compare] only at protocol types (typed section below). *)
let poly_compare_value_fires = check_fires "poly-compare-protocol" "let f xs = List.sort compare xs"
let poly_hash_fires = check_fires "poly-compare-protocol" "let f view = Hashtbl.hash view"

let poly_compare_fn_quiet = check_quiet (gid_stub ^ "let f xs = List.sort Gid.compare xs")
let int_equal_quiet = check_quiet "let f (view : int) a = Int.equal view a"

(* ---------------- resolution: aliases and opens ---------------- *)

(* A matched name does not depend on its spelling: a local alias or an
   [open] resolves to the same canonical path. *)
let hashtbl_alias_fires = check_fires "hashtbl-iter-order" "module H = Hashtbl\nlet f tbl = H.iter (fun _ _ -> ()) tbl"
let wall_clock_open_fires = check_fires "wall-clock" "open Unix\nlet f () = gettimeofday ()"

(* The alias line itself names [Engine]; the use through [E] must fire
   too. *)
let engine_alias_source = engine_stub ^ "module E = Engine\nlet f t p = E.send t ~src:0 ~dst:1 p\n"

let engine_alias_fires () =
  let findings = lint engine_alias_source in
  Alcotest.(check bool) "E.send is Engine.send" true
    (List.exists
       (* line 7: the use, after the five-line stub and the alias *)
       (fun (f : Lint_rules.finding) -> Lint_rules.name f.rule = "runtime-boundary" && f.line = 7)
       findings)

let engine_alias_sim_quiet = check_quiet ~path:"lib/sim/fault.ml" engine_alias_source

(* ---------------- protocol rules ---------------- *)

let dispatch_source =
  payload_stub
  ^ {|
type Payload.t += Ns_a of int | Ns_b of int
let f payload = match payload with Ns_a _ -> 1 | _ -> 0
|}

let dispatch_wildcard_fires = check_fires "dispatch-wildcard" dispatch_source

let dispatch_exhaustive_quiet =
  check_quiet
    (payload_stub
    ^ {|
type Payload.t += Ns_a of int | Ns_b of int
let f payload = match payload with Ns_a _ -> 1 | Ns_b _ -> 2 | _ -> 0
|})

let cross_file_families () =
  (* constructors declared in another unit still constrain this match:
     the fixture is typechecked in the environment the other unit
     leaves, but linted as a separate unit *)
  let other_source = payload_stub ^ "type Payload.t += Ns_a of int | Ns_b of int" in
  let other, env = typecheck_in (initial_env ()) other_source in
  let source = "let f payload = match payload with Ns_a _ -> 1 | _ -> 0" in
  let str, _ = typecheck_in env source in
  let units = [ unit_of ~path:"lib/fixture/other.ml" other other_source; unit_of str source ] in
  let findings = (Tlint_engine.analyze units).findings in
  Alcotest.(check bool) "family from other file" true
    (List.exists
       (fun (f : Lint_rules.finding) -> f.file = "lib/fixture/fixture.ml" && f.rule = Lint_rules.Dispatch_wildcard)
       findings)

let lstate_source =
  {|
type lstate = { mutable view : int option; lwg : int }
type lstatus = Resolving of { mutable since : int } | Idle
let f (l : lstate) = l.view <- None
let g = function Resolving r -> r.since <- 0 | Idle -> ()
|}

let lstate_mutation_fires () =
  Alcotest.(check (list string)) "record and inline-record fields" [ "lstate-mutation"; "lstate-mutation" ]
    (rules_of (lint lstate_source))

let lstate_transition_quiet =
  check_quiet
    {|
type lstate = { mutable view : int option; lwg : int }
let f (l : lstate) = l.view <- None [@@transition]
let g (l : lstate) = l.view <- Some 1 [@@plwg.transition]
let[@transition] h (l : lstate) = l.view <- None
|}

let missing_mli_fires () =
  Alcotest.(check (list string)) "missing-mli" [ "missing-mli" ] (rules_of (lint ~has_mli:false "let x = 1"))

let has_mli_quiet () = Alcotest.(check (list string)) "mli present" [] (rules_of (lint ~has_mli:true "let x = 1"))

let gid_string_fires = check_fires "gid-string-boundary" (gid_stub ^ "let f gid = String.length (Gid.to_string gid)")

let view_id_string_fires =
  check_fires "gid-string-boundary"
    "module View_id = struct let to_string = string_of_int end\nlet f xs = List.map View_id.to_string xs"

let gid_string_qualified_fires =
  check_fires "gid-string-boundary"
    ("module Plwg_vsync = struct module Types = struct\n" ^ gid_stub
   ^ "end end\nlet f gid = Plwg_vsync.Types.Gid.to_string gid")

let gid_string_in_trace_quiet =
  check_quiet
    (gid_stub
    ^ {|
module Event = struct type t = Installed of { group : string } end
module Rt = struct type t = unit let trace (_ : t) (_ : unit -> Event.t) = () end
type ctx = { rt : Rt.t }
let f t gid = Rt.trace t.rt (fun () -> Event.Installed { group = Gid.to_string gid })
|})

let gid_string_in_logs_quiet =
  check_quiet
    (gid_stub
    ^ {|
module Logs = struct let debug (msgf : (string -> string -> unit) -> unit) = msgf (fun _ _ -> ()) end
let f gid = Logs.debug (fun m -> m "group %s" (Gid.to_string gid))
|})

let gid_string_in_printer_quiet =
  check_quiet
    (gid_stub ^ payload_stub
    ^ {|
type Payload.t += Msg of int
let () = Payload.register_printer (function Msg g -> Some (Gid.to_string g) | _ -> None)
|})

let gid_string_outside_lib_quiet =
  check_quiet ~path:"test/fixture.ml" (gid_stub ^ "let f gid = String.length (Gid.to_string gid)")

(* ---------------- runtime boundary ---------------- *)

let runtime_boundary_value_fires =
  check_fires "runtime-boundary" (engine_stub ^ "let f t p = Engine.send t ~src:0 ~dst:1 p")

let runtime_boundary_type_fires = check_fires "runtime-boundary" (engine_stub ^ "let f (t : Engine.t) = ignore t")

let runtime_boundary_sim_quiet =
  check_quiet ~path:"lib/sim/fault.ml" (engine_stub ^ "let f t p = Engine.send t ~src:0 ~dst:1 p")

let runtime_boundary_runtime_quiet =
  check_quiet ~path:"lib/runtime/sim_rt.ml" (engine_stub ^ "let f (t : Engine.t) = Engine.now t")

let runtime_boundary_rt_quiet =
  check_quiet
    "module Rt = struct let send () ~src:(_ : int) ~dst:(_ : int) (_ : int) = () end\n\
     let f rt p = Rt.send rt ~src:0 ~dst:1 p"

(* ---------------- engine roots ---------------- *)

(* Every requested root must contribute units: an executable's cmt is
   only written by [dune build @check], so an empty root means an
   unbuilt tree, not a clean one. *)
let empty_root_is_error () =
  let with_cmt = Filename.temp_dir "plwg_lint" "" and empty = Filename.temp_dir "plwg_lint" "" in
  let source = Filename.concat with_cmt "fixture.ml" and cmt = Filename.concat with_cmt "fixture.cmt" in
  let cleanup () =
    List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ source; cmt ];
    List.iter Sys.rmdir [ with_cmt; empty ]
  in
  let one, both =
    Fun.protect ~finally:cleanup (fun () ->
        Out_channel.with_open_bin source (fun oc -> Out_channel.output_string oc "let x = 1\n");
        let str, _ = typecheck_in (initial_env ()) "let x = 1" in
        Clflags.binary_annotations := true;
        Cmt_format.save_cmt cmt "Fixture" (Cmt_format.Implementation str) (Some source) (initial_env ()) None None;
        (Tlint_engine.run ~roots:[ with_cmt ], Tlint_engine.run ~roots:[ with_cmt; empty ]))
  in
  (match one with
  | Ok r -> Alcotest.(check int) "one unit" 1 r.units
  | Error msg -> Alcotest.fail msg);
  match both with
  | Ok _ -> Alcotest.fail "a root without cmts passed"
  | Error msg -> Alcotest.(check bool) "error names the empty root" true (contains msg empty)

(* ---------------- suppressions ---------------- *)

let suppression_honored =
  check_quiet
    {|
(* plwg-lint: allow hashtbl-iter-order — fixture *)
let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl
|}

let suppression_wrong_rule () =
  let source =
    {|
(* plwg-lint: allow wall-clock — wrong rule *)
let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl
|}
  in
  Alcotest.(check bool) "wrong rule does not mask" true (List.mem "hashtbl-iter-order" (rules_of (lint source)))

let suppression_all () =
  let source =
    {|
(* plwg-lint: allow all — fixture *)
let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl
|}
  in
  Alcotest.(check (list string)) "allow all masks" [] (rules_of (lint source))

let suppression_scope () =
  (* the suppression covers only the next line, not the whole file *)
  let source =
    {|
(* plwg-lint: allow hashtbl-iter-order — fixture *)
let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl
let g tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl []
|}
  in
  Alcotest.(check (list string)) "second site still fires" [ "hashtbl-iter-order" ] (rules_of (lint source))

let marker_without_rules_inert () =
  (* the marker only suppresses when a recognized rule name follows it *)
  let source =
    {|
(* see the plwg-lint: allow conventions in the README *)
let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl
|}
  in
  Alcotest.(check bool) "marker without rule names does not suppress" true
    (List.mem "hashtbl-iter-order" (rules_of (lint source)))

(* ---------------- baseline ---------------- *)

let baseline_masks_exactly () =
  let findings = lint "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl\nlet g () = Unix.gettimeofday ()" in
  Alcotest.(check int) "two findings" 2 (List.length findings);
  let masked = List.filter (fun (f : Lint_rules.finding) -> f.rule = Lint_rules.Wall_clock) findings in
  let entries = List.map (fun f -> Lint_baseline.entry_of_finding f ~reason:"fixture") masked in
  let unmasked, stale = Lint_baseline.apply entries findings in
  Alcotest.(check (list string)) "only the baselined finding is masked" [ "hashtbl-iter-order" ] (rules_of unmasked);
  Alcotest.(check int) "no stale entries" 0 (List.length stale)

let baseline_stale_detected () =
  let entries =
    [ { Lint_baseline.rule = "wall-clock"; file = "lib/fixture/fixture.ml"; source_line = "gone"; reason = "fixture" } ]
  in
  let unmasked, stale = Lint_baseline.apply entries [] in
  Alcotest.(check int) "nothing unmasked" 0 (List.length unmasked);
  Alcotest.(check int) "entry reported stale" 1 (List.length stale)

let baseline_one_entry_one_finding () =
  (* a single entry masks one occurrence, not every identical line *)
  let findings =
    lint "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl\nlet g tbl = Hashtbl.iter (fun _ _ -> ()) tbl"
  in
  let same =
    List.filter (fun (f : Lint_rules.finding) -> f.rule = Lint_rules.Hashtbl_iter_order) findings
  in
  Alcotest.(check int) "two identical findings" 2 (List.length same);
  let entries = [ Lint_baseline.entry_of_finding (List.hd same) ~reason:"fixture" ] in
  let unmasked, stale = Lint_baseline.apply entries findings in
  Alcotest.(check int) "one still unmasked" 1 (List.length unmasked);
  Alcotest.(check int) "no stale entries" 0 (List.length stale)

let baseline_json_roundtrip () =
  let entries =
    [ { Lint_baseline.rule = "wall-clock"; file = "bench/macro.ml"; source_line = "let w = x"; reason = "bench" } ]
  in
  let file = Filename.temp_file "plwg_baseline" ".json" in
  Lint_baseline.save file entries;
  let loaded = Lint_baseline.load file in
  Sys.remove file;
  match loaded with
  | Error msg -> Alcotest.fail msg
  | Ok round ->
      Alcotest.(check int) "one entry" 1 (List.length round);
      let e = List.hd round in
      Alcotest.(check string) "rule" "wall-clock" e.Lint_baseline.rule;
      Alcotest.(check string) "reason" "bench" e.Lint_baseline.reason

(* ---------------- message-family dispatch (ordinary variants) ---------------- *)

(* An ordinary variant opts into the dispatch-wildcard rule with
   [@@message_family]; without the attribute only extension
   constructors are enforced. *)

let family_variant_fires =
  check_fires "dispatch-wildcard"
    {|
type lineage = L_continuous | L_cut of int | L_rejoined of int [@@message_family]
let f l = match l with L_continuous -> 0 | _ -> 1
|}

let family_variant_exhaustive_quiet =
  check_quiet
    {|
type lineage = L_continuous | L_cut of int [@@message_family]
let f l = match l with L_continuous -> 0 | L_cut _ -> 1 | _ -> 2
|}

let plain_variant_not_enforced =
  check_quiet
    {|
type plain = L_continuous | L_cut of int
let f l = match l with L_continuous -> 0 | _ -> 1
|}

(* ---------------- report ordering ---------------- *)

let report_order_canonical () =
  let mk file line rule : Lint_rules.finding =
    { rule; file; line; col = 0; source_line = "s"; message = "m" }
  in
  let sorted =
    [
      mk "lib/a.ml" 1 Lint_rules.Wall_clock;
      mk "lib/a.ml" 9 Lint_rules.Hashtbl_iter_order;
      mk "lib/b.ml" 2 Lint_rules.Poly_compare_protocol;
    ]
  in
  let shuffled = [ List.nth sorted 2; List.nth sorted 0; List.nth sorted 1 ] in
  let render fs = Plwg_obs.Json.to_string (Lint_report.to_json ~werror:true fs) in
  Alcotest.(check string) "json order independent of discovery order" (render sorted) (render shuffled)

(* ---------------- typed rules ---------------- *)

(* These rules need the instantiated types; protocol modules are
   declared locally (a local [module Types] yields the same canonical
   ["Types.Gid.t"] key the protocol seed matches). *)

let protocol_prelude =
  {|
module Types = struct
  module Gid = struct
    type t = { seq : int; origin : int }
    let equal a b = Int.equal a.seq b.seq && Int.equal a.origin b.origin
  end
  module View_id = struct
    type t = { coord : int; seq : int }
  end
end
|}

let typed_poly_fires () =
  let findings = lint (protocol_prelude ^ "let f (a : Types.Gid.t) b = a = b") in
  Alcotest.(check (list string)) "one finding" [ "poly-compare-protocol" ] (rules_of findings);
  Alcotest.(check bool) "witness names the protocol type" true (contains (List.hd findings).message "Types.Gid.t")

let typed_poly_containment_fires () =
  (* a locally-declared record *containing* a protocol type is caught
     through the containment closure, and in value position too *)
  let findings =
    lint (protocol_prelude ^ "type wrap = { g : Types.Gid.t; n : int }\nlet f (xs : wrap list) = List.sort compare xs")
  in
  Alcotest.(check int) "closure catches the wrapper" 1 (List.length findings)

let typed_poly_quiet () =
  let findings = lint (protocol_prelude ^ "let f (a : Types.Gid.t) b = Types.Gid.equal a b\nlet g (x : int) y = x = y") in
  Alcotest.(check int) "keyed equality and int compare are quiet" 0 (List.length findings)

let poly_compare_one_finding () =
  (* value position and protocol-typed at once: one finding, quoting
     the protocol type *)
  match lint (protocol_prelude ^ "let f (vs : Types.View_id.t list) = List.sort compare vs") with
  | [ f ] ->
      Alcotest.(check string) "rule" "poly-compare-protocol" (Lint_rules.name f.rule);
      Alcotest.(check bool) "witness" true (contains f.message "Types.View_id.t")
  | findings -> Alcotest.failf "expected one finding, got %d" (List.length findings)

let typed_alloc_fires () =
  let str = typecheck "let wrap x = Some x [@@zero_alloc_hot]\nlet rev xs = List.rev xs [@@zero_alloc_hot]" in
  Alcotest.(check int) "two hot bindings" 2 (List.length (Tlint_alloc.hot_bindings str));
  let messages = List.map (fun (_, _, m) -> m) (Tlint_alloc.check str) in
  Alcotest.(check int) "two findings" 2 (List.length messages);
  Alcotest.(check bool) "constructor flagged" true (List.exists (fun m -> contains m "Some") messages);
  Alcotest.(check bool) "List.rev flagged" true (List.exists (fun m -> contains m "List.rev") messages)

let typed_alloc_quiet () =
  let str =
    typecheck
      "let add a b = a + b [@@zero_alloc_hot]\n\
       let get (t : int array) i = t.(i) [@@zero_alloc_hot]\n\
       let cold x = (Some x [@alloc_ok \"fixture: cold path\"]) [@@zero_alloc_hot]"
  in
  Alcotest.(check int) "three hot bindings" 3 (List.length (Tlint_alloc.hot_bindings str));
  Alcotest.(check int) "arithmetic, reads and [@alloc_ok] are quiet" 0 (List.length (Tlint_alloc.check str))

(* A trace thunk runs only when tracing, but its closure is built at
   every call: unguarded, it is the one finding (its body, which only
   runs traced, is not checked); behind a guard marked [@alloc_ok] it is
   quiet. *)
let trace_prelude = "let trace (make : unit -> int option) = ignore make\n"

let typed_trace_thunk_fires () =
  let str = typecheck (trace_prelude ^ "let hot x = trace (fun () -> Some x) [@@zero_alloc_hot]") in
  match Tlint_alloc.check str with
  | [ (_, _, message) ] -> Alcotest.(check bool) "thunk closure flagged" true (contains message "trace thunk closure")
  | findings -> Alcotest.failf "expected one finding, got %d" (List.length findings)

let typed_trace_thunk_quiet () =
  let str =
    typecheck
      (trace_prelude
     ^ "let hot tracing x = if tracing then (trace (fun () -> Some x) [@alloc_ok \"fixture: guarded\"]) \
        [@@zero_alloc_hot]")
  in
  Alcotest.(check int) "guarded thunk is quiet" 0 (List.length (Tlint_alloc.check str))

let shared_cell_source annotated =
  "let registry : (int, int) Hashtbl.t = Hashtbl.create 16"
  ^ (if annotated then " [@@shared_cell \"fixture registry\"]" else "")
  ^ "\nlet lookup k = Hashtbl.find_opt registry k"

let typed_shared_cell_fires () =
  let cells, findings = Tlint_domain.analyze [ fixture (shared_cell_source false) ] in
  Alcotest.(check bool) "unannotated global flagged" true
    (List.exists (fun (_, rule, _, _) -> rule = Lint_rules.Shared_cell) findings);
  match List.find_opt (fun (c : Tlint_domain.cell) -> c.c_id = "Fixture.registry") cells with
  | None -> Alcotest.fail "global cell missing from the report"
  | Some c ->
      Alcotest.(check string) "classified shared" "shared" c.c_class;
      Alcotest.(check string) "via unannotated" "unannotated" c.c_via

let typed_shared_cell_quiet () =
  let cells, findings = Tlint_domain.analyze [ fixture (shared_cell_source true) ] in
  Alcotest.(check int) "annotated global passes" 0 (List.length findings);
  match List.find_opt (fun (c : Tlint_domain.cell) -> c.c_id = "Fixture.registry") cells with
  | None -> Alcotest.fail "global cell missing from the report"
  | Some c ->
      Alcotest.(check string) "still reported shared" "shared" c.c_class;
      Alcotest.(check string) "via annotation" "annotation" c.c_via;
      Alcotest.(check string) "reason recorded" "fixture registry" c.c_reason

(* A record a unit gets through [include M] is declared in that unit
   too: its mutable field must reach the report under the unit's own
   path, at the include. *)
let typed_included_field_reported () =
  let source = "module M = struct\n  type r = { mutable hits : int }\nend\n\ninclude M\n" in
  let cells, _ = Tlint_domain.analyze [ fixture source ] in
  match List.find_opt (fun (c : Tlint_domain.cell) -> c.c_id = "Fixture.r.hits") cells with
  | None -> Alcotest.fail "included record's mutable field missing from the report"
  | Some c ->
      Alcotest.(check string) "mutable field" "mutable" c.c_mut;
      Alcotest.(check int) "reported at the include" 5 c.c_line

let domain_report_deterministic () =
  (* regeneration from a fresh typecheck of the same source must be
     byte-identical — the property the @lint-typed staleness check
     (--check-domain-safety) relies on *)
  let render () = Tlint_domain.render (fst (Tlint_domain.analyze [ fixture (shared_cell_source true) ])) in
  let first = render () in
  Alcotest.(check string) "byte-identical regeneration" first (render ());
  match Plwg_obs.Json.of_string first with
  | Plwg_obs.Json.Obj fields ->
      Alcotest.(check bool) "schema field" true
        (List.exists
           (function "schema", Plwg_obs.Json.Str "plwg-domain-safety/1" -> true | _ -> false)
           fields)
  | _ -> Alcotest.fail "report is not a JSON object"

(* ---------------- unused-export ---------------- *)

(* A lib/ unit [Fixture] with an interface exporting [used] and
   [unused], and a unit under bin/ typechecked against that interface
   as the compiled module [Fixture].  [attrs] decorates [unused]. *)
let export_findings ?(attrs = "") user_source =
  let mli = "val used : int -> int\nval unused : int -> int" ^ attrs ^ "\n" in
  let ml = "let used x = x + 1\nlet unused x = x - 1\n" in
  let env = initial_env () in
  let sg = Typemod.transl_signature env (Parse.interface (Lexing.from_string mli)) in
  let fixture = unit_of ~intf:{ Tlint_load.i_sig = sg; i_text = mli } (fst (typecheck_in env ml)) ml in
  let user_env =
    Env.add_module (Ident.create_persistent "Fixture") Types.Mp_present (Types.Mty_signature sg.sig_type) env
  in
  let user = unit_of ~path:"bin/user.ml" (fst (typecheck_in user_env user_source)) user_source in
  List.filter
    (fun (f : Lint_rules.finding) -> f.rule = Lint_rules.Unused_export)
    (Tlint_engine.analyze [ fixture; user ]).findings

(* The exports a set of findings names, e.g. ["Fixture.unused"]. *)
let flagged findings =
  List.map (fun (f : Lint_rules.finding) -> List.hd (String.split_on_char ' ' f.message)) findings

let unused_export_fires () =
  let findings = export_findings "let g = Fixture.used 1" in
  Alcotest.(check (list string)) "only the unreferenced export" [ "Fixture.unused" ] (flagged findings);
  Alcotest.(check (list string)) "reported in the interface" [ "lib/fixture/fixture.mli" ]
    (List.map (fun (f : Lint_rules.finding) -> f.file) findings)

let unused_export_alias_quiet () =
  Alcotest.(check (list string)) "both reached through F" []
    (flagged (export_findings "module F = Fixture\nlet g = F.used (F.unused 1)"))

(* A coercion references the values of the signature the module is
   used at, and only those. *)
let unused_export_coercion () =
  Alcotest.(check (list string)) "unused is not in S" [ "Fixture.unused" ]
    (flagged (export_findings "module type S = sig val used : int -> int end\nmodule M : S = Fixture"))

let unused_export_include_quiet () =
  Alcotest.(check (list string)) "include uses every value" [] (flagged (export_findings "include Fixture"))

let unused_export_test_support_quiet () =
  Alcotest.(check (list string)) "kept on purpose" []
    (flagged (export_findings ~attrs:" [@@test_support \"tests call it\"]" "let g = Fixture.used 1"))

let unused_export_stale_annotation_fires () =
  Alcotest.(check (list string)) "the system uses it" [ "Fixture.unused" ]
    (flagged (export_findings ~attrs:" [@@test_support \"tests call it\"]" "let g = Fixture.used (Fixture.unused 1)"))

let unused_export_empty_reason_fires () =
  let findings = export_findings ~attrs:" [@@plwg.test_support \"\"]" "let g = Fixture.used 1" in
  Alcotest.(check (list string)) "an empty reason is a finding" [ "Fixture.unused:" ] (flagged findings);
  Alcotest.(check bool) "asks for a reason" true
    (List.for_all (fun (f : Lint_rules.finding) -> contains f.message "needs a reason") findings)

let suite =
  [
    Alcotest.test_case "hashtbl iter fires" `Quick hashtbl_iter_fires;
    Alcotest.test_case "hashtbl fold fires" `Quick hashtbl_fold_fires;
    Alcotest.test_case "Tbl sorted iteration is quiet" `Quick tbl_sorted_quiet;
    Alcotest.test_case "Random outside Rng fires" `Quick random_fires;
    Alcotest.test_case "Random inside Rng is quiet" `Quick random_inside_rng_quiet;
    Alcotest.test_case "Unix.gettimeofday fires" `Quick wall_clock_fires;
    Alcotest.test_case "Sys.time fires" `Quick sys_time_fires;
    Alcotest.test_case "bare compare as value fires" `Quick poly_compare_value_fires;
    Alcotest.test_case "Hashtbl.hash fires" `Quick poly_hash_fires;
    Alcotest.test_case "typed comparator is quiet" `Quick poly_compare_fn_quiet;
    Alcotest.test_case "Int.equal is quiet" `Quick int_equal_quiet;
    Alcotest.test_case "aliased Hashtbl.iter fires" `Quick hashtbl_alias_fires;
    Alcotest.test_case "gettimeofday under open Unix fires" `Quick wall_clock_open_fires;
    Alcotest.test_case "aliased Engine use fires" `Quick engine_alias_fires;
    Alcotest.test_case "aliased Engine under lib/sim is quiet" `Quick engine_alias_sim_quiet;
    Alcotest.test_case "dispatch wildcard fires" `Quick dispatch_wildcard_fires;
    Alcotest.test_case "exhaustive dispatch is quiet" `Quick dispatch_exhaustive_quiet;
    Alcotest.test_case "families cross files" `Quick cross_file_families;
    Alcotest.test_case "lstate mutation fires" `Quick lstate_mutation_fires;
    Alcotest.test_case "transition functions are quiet" `Quick lstate_transition_quiet;
    Alcotest.test_case "missing mli fires" `Quick missing_mli_fires;
    Alcotest.test_case "present mli is quiet" `Quick has_mli_quiet;
    Alcotest.test_case "gid to_string fires" `Quick gid_string_fires;
    Alcotest.test_case "view-id to_string fires" `Quick view_id_string_fires;
    Alcotest.test_case "qualified gid to_string fires" `Quick gid_string_qualified_fires;
    Alcotest.test_case "to_string in trace thunk is quiet" `Quick gid_string_in_trace_quiet;
    Alcotest.test_case "to_string in Logs is quiet" `Quick gid_string_in_logs_quiet;
    Alcotest.test_case "to_string in payload printer is quiet" `Quick gid_string_in_printer_quiet;
    Alcotest.test_case "to_string outside lib is quiet" `Quick gid_string_outside_lib_quiet;
    Alcotest.test_case "Engine value use outside runtime fires" `Quick runtime_boundary_value_fires;
    Alcotest.test_case "Engine.t annotation outside runtime fires" `Quick runtime_boundary_type_fires;
    Alcotest.test_case "Engine use under lib/sim is quiet" `Quick runtime_boundary_sim_quiet;
    Alcotest.test_case "Engine use under lib/runtime is quiet" `Quick runtime_boundary_runtime_quiet;
    Alcotest.test_case "Rt surface is quiet" `Quick runtime_boundary_rt_quiet;
    Alcotest.test_case "root without cmts is an error" `Quick empty_root_is_error;
    Alcotest.test_case "suppression honored" `Quick suppression_honored;
    Alcotest.test_case "suppression is rule-specific" `Quick suppression_wrong_rule;
    Alcotest.test_case "allow all" `Quick suppression_all;
    Alcotest.test_case "suppression scope is one site" `Quick suppression_scope;
    Alcotest.test_case "marker without rule names is inert" `Quick marker_without_rules_inert;
    Alcotest.test_case "baseline masks exactly" `Quick baseline_masks_exactly;
    Alcotest.test_case "baseline stale entries" `Quick baseline_stale_detected;
    Alcotest.test_case "baseline entry masks one finding" `Quick baseline_one_entry_one_finding;
    Alcotest.test_case "baseline json round trip" `Quick baseline_json_roundtrip;
    Alcotest.test_case "[@@message_family] variant fires" `Quick family_variant_fires;
    Alcotest.test_case "[@@message_family] exhaustive is quiet" `Quick family_variant_exhaustive_quiet;
    Alcotest.test_case "plain variant not enforced" `Quick plain_variant_not_enforced;
    Alcotest.test_case "report order is canonical" `Quick report_order_canonical;
    Alcotest.test_case "typed poly = at protocol type fires" `Quick typed_poly_fires;
    Alcotest.test_case "typed poly containment closure fires" `Quick typed_poly_containment_fires;
    Alcotest.test_case "typed keyed equality is quiet" `Quick typed_poly_quiet;
    Alcotest.test_case "poly compare site reports once" `Quick poly_compare_one_finding;
    Alcotest.test_case "hot-path allocation fires" `Quick typed_alloc_fires;
    Alcotest.test_case "allocation-free hot path is quiet" `Quick typed_alloc_quiet;
    Alcotest.test_case "unguarded trace thunk fires" `Quick typed_trace_thunk_fires;
    Alcotest.test_case "guarded trace thunk is quiet" `Quick typed_trace_thunk_quiet;
    Alcotest.test_case "unannotated shared cell fires" `Quick typed_shared_cell_fires;
    Alcotest.test_case "annotated shared cell is quiet" `Quick typed_shared_cell_quiet;
    Alcotest.test_case "included record field is reported" `Quick typed_included_field_reported;
    Alcotest.test_case "domain report regeneration is byte-identical" `Quick domain_report_deterministic;
    Alcotest.test_case "export without outside reference fires" `Quick unused_export_fires;
    Alcotest.test_case "export used through a local alias is quiet" `Quick unused_export_alias_quiet;
    Alcotest.test_case "module coerced to a signature uses its values" `Quick unused_export_coercion;
    Alcotest.test_case "included module is used whole" `Quick unused_export_include_quiet;
    Alcotest.test_case "[@@test_support] export is quiet" `Quick unused_export_test_support_quiet;
    Alcotest.test_case "empty [@@test_support] reason fires" `Quick unused_export_empty_reason_fires;
    Alcotest.test_case "[@@test_support] on a used export fires" `Quick unused_export_stale_annotation_fires;
  ]
