(** The analysis engine: cmt loading, the rule catalog over the
    typedtrees, inline suppressions, canonical finding order, and the
    domain-safety cell table of [lib/]. *)

type result_bundle = {
  findings : Lint_rules.finding list;
  cells : Tlint_domain.cell list;
  units : int;  (** cmt units analyzed *)
  hot_bindings : int;  (** [@@zero_alloc_hot] bindings checked *)
}

val analyze : Tlint_load.unit_info list -> result_bundle
  [@@test_support "tests lint in-process fixtures without cmts"]
(** Check already-loaded units; message families and protocol types
    are collected across all of them before any unit is checked. *)

val run : roots:string list -> (result_bundle, string) result
(** Load every cmt under the roots (see {!Tlint_load.load}) and
    {!analyze}; [Error] when some root yields no unit. *)
