(* The lint's attribute vocabulary, looked up on compiler-libs
   [Parsetree.attributes] as preserved in cmt typedtrees:

     [@@transition]              binding may mutate lstate fields
     [@@message_family]          variant enforced like an extension family
     [@@zero_alloc_hot]          gate a function's body against allocation
     [@alloc_ok "reason"]        audited cold branch inside a hot body
     [@@shared_cell "reason"]    audited module-global mutable cell
     [@shared_cell "reason"]     same, on a mutable record field
     [@@test_support "reason"]   export kept for tests or applications

   Every name also accepts a [plwg.] prefix ([@@plwg.transition]). *)

let has_name name (attr : Parsetree.attribute) =
  String.equal attr.attr_name.txt name || String.equal attr.attr_name.txt ("plwg." ^ name)

let find name attrs = List.find_opt (has_name name) attrs

(* The attribute's string payload, when it carries one: the audit
   reason of [@@shared_cell "..."] / [@alloc_ok "..."]. *)
let payload_string (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (reason, _, _)); _ }, _);
          _;
        };
      ] ->
      Some reason
  | _ -> None

let transition attrs = Option.is_some (find "transition" attrs)
let message_family attrs = Option.is_some (find "message_family" attrs)
let zero_alloc_hot attrs = Option.is_some (find "zero_alloc_hot" attrs)
let alloc_ok attrs = Option.is_some (find "alloc_ok" attrs)

(* [None]: not annotated.  [Some reason] ([reason] possibly [""]): an
   audited shared cell, or an export kept on purpose. *)
let reason name attrs = Option.map (fun attr -> Option.value ~default:"" (payload_string attr)) (find name attrs)
let shared_cell = reason "shared_cell"
let test_support = reason "test_support"
