(** Canonical, compilation-unit-independent names for compiler-libs
    paths: wrapper-library qualifiers dropped, [Lib__Module] mangling
    shortened, unit-local heads qualified with the unit short name. *)

val canon : Path.t -> string
(** Canonical dotted name of an already-qualified path. *)

val canon_in : unit:string -> Path.t -> string
(** Like {!canon}, but a bare unit-local head (a type or value referred
    to from inside its own unit) is prefixed with [unit] so it keys the
    same as its external spellings. *)

val unit_of_modname : string -> string
(** Short unit name of a [cmt_modname]: ["Plwg_util__Intern"] →
    ["Intern"]. *)

val is_trace_boundary : string -> bool
(** Canonical names of the calls whose arguments only run, or only
    render, when a trace or log sink is enabled: [Logs.*], any [trace],
    and [register_printer]. *)
