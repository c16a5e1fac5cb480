(** Canonical, compilation-unit-independent names for compiler-libs
    paths: wrapper-library qualifiers dropped, [Lib__Module] mangling
    shortened, unit-local heads qualified with the unit short name;
    and the resolution of a unit's own module aliases. *)

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

val aliases : Typedtree.structure -> Path.t Ident.Map.t
(** A unit's own module aliases ([module H = Hashtbl], and the local
    [let module E = Engine in ..]), keyed by the bound ident. *)

val resolve : Path.t Ident.Map.t -> Path.t -> Path.t
(** Rewrite a path through {!aliases}, so [H.iter] reads
    [Stdlib.Hashtbl.iter]. *)
