(** Reporting: severity policy, human and JSON output.

    Severity policy: findings in library code ([lib/]) are always
    errors; elsewhere they are warnings unless [~werror:true] upgrades
    everything (the dune [@lint-typed] alias does). *)

val severity : werror:bool -> Lint_rules.finding -> Lint_rules.severity
val severity_name : Lint_rules.severity -> string
val print_human : out_channel -> werror:bool -> Lint_rules.finding list -> unit

val summary : Lint_rules.finding list -> (string * int) list
(** Per-rule counts in catalog order; zero-count rules omitted. *)

val report_schema : string
val to_json : werror:bool -> Lint_rules.finding list -> Plwg_obs.Json.t
val any_error : werror:bool -> Lint_rules.finding list -> bool
