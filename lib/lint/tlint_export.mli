(** The unused-export rule: a [val] or [external] in the interface of a
    lib/ unit that no other analyzed unit outside test/ references,
    by name (through the referencing unit's own module aliases) or by
    using an enclosing module whole ([include], a signature coercion,
    a first-class pack, a functor argument) at a signature that holds
    the value.  An export annotated [[@@test_support "reason"]] is
    kept, unless its reason is empty or the system references it. *)

val check : Tlint_load.unit_info list -> (string * Lint_rules.id * Location.t * string) list
(** Findings tagged with the interface file ([lib/x/m.mli]). *)
