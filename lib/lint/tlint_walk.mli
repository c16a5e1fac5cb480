(** The rules that judge one identifier, pattern or assignment at a
    time: hashtbl-iter-order, random-outside-rng, wall-clock,
    poly-compare-protocol, gid-string-boundary, runtime-boundary,
    dispatch-wildcard and lstate-mutation, matched on paths resolved
    through each unit's own module aliases. *)

val check :
  protocol:Tlint_types.SSet.t -> Tlint_load.unit_info list -> (string * Lint_rules.id * Location.t * string) list
(** Findings tagged with their source file.  Message families are
    collected across all the units before any unit is checked, so a
    dispatch is held to constructors declared anywhere in the tree. *)
