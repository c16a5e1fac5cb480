(** The grandfathering baseline ([plwg-lint-baseline/1]): a checked-in
    JSON list of acknowledged findings keyed by
    (rule, file, trimmed source line), line-number independent. *)

type entry = { rule : string; file : string; source_line : string; reason : string }

val entry_of_finding : Lint_rules.finding -> reason:string -> entry

val load : string -> (entry list, string) result
(** A missing file loads as [Ok []]. *)

val save : string -> entry list -> unit

val apply : entry list -> Lint_rules.finding list -> Lint_rules.finding list * entry list
(** [apply entries findings] is [(unmasked, stale)]: each baseline entry
    masks at most one matching finding; [stale] are the entries that
    masked nothing and should be pruned. *)
