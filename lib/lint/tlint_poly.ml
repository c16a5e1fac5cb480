(* Typed poly-compare: flag the polymorphic structural operations when
   their instantiated type touches a protocol type.  Called by the
   identifier walk ({!Tlint_walk}) on every value identifier.

   Every use of [=]/[compare]/[List.mem]/... — applied or passed as a
   value — goes through a [Texp_ident] whose [exp_type] is the
   *instantiated* scheme, so checking identifier occurrences alone
   covers both positions uniformly: for [view = v] the identifier's
   type is [View.t -> View.t -> bool]; for [List.sort compare views]
   it is [View.t -> View.t -> int].  The first arrow argument is the
   compared type; if a protocol type occurs anywhere inside it, the
   structural traversal would compare protocol values and the
   occurrence is flagged.

   Two checks need no protocol type and fire at any type: [Hashtbl.hash]
   hashes the representation, and a bare [compare] passed as a value
   (not applied) hands a comparator of unknown type to a sort or table.
   A site that is also protocol-typed reports once, with the witness. *)

let op_display = function
  | "Stdlib.=" -> Some "="
  | "Stdlib.<>" -> Some "<>"
  | "Stdlib.<" -> Some "<"
  | "Stdlib.>" -> Some ">"
  | "Stdlib.<=" -> Some "<="
  | "Stdlib.>=" -> Some ">="
  | "Stdlib.compare" -> Some "compare"
  | "Stdlib.min" -> Some "min"
  | "Stdlib.max" -> Some "max"
  | "Stdlib.Hashtbl.hash" -> Some "Hashtbl.hash"
  | "Stdlib.Hashtbl.seeded_hash" -> Some "Hashtbl.seeded_hash"
  | "Stdlib.List.mem" -> Some "List.mem"
  | "Stdlib.List.assoc" -> Some "List.assoc"
  | "Stdlib.List.assoc_opt" -> Some "List.assoc_opt"
  | "Stdlib.List.mem_assoc" -> Some "List.mem_assoc"
  | "Stdlib.List.remove_assoc" -> Some "List.remove_assoc"
  | "Stdlib.Array.mem" -> Some "Array.mem"
  | _ -> None

let first_arg ty =
  match Types.get_desc ty with Types.Tarrow (_, arg, _, _) -> Some arg | _ -> None

let check ~protocol ~unit ~applied path (e : Typedtree.expression) =
  match op_display path with
  | None -> None
  | Some op -> (
      match Option.bind (first_arg e.exp_type) (Tlint_types.protocol_witness ~protocol ~unit) with
      | Some witness ->
          Some
            (Printf.sprintf "polymorphic %s instantiated at protocol type %s; use keyed equality/comparison instead"
               op witness)
      | None when String.starts_with ~prefix:"Hashtbl." op ->
          Some (Printf.sprintf "%s hashes the representation; protocol types need a dedicated hash or key" op)
      | None when String.equal op "compare" && not applied ->
          Some "polymorphic compare passed as a value; pass the type's comparator (e.g. String.compare, Gid.compare)"
      | None -> None)
