(** Discovery and loading of the [.cmt] files the analyses walk:
    recursive scan of each root (and of [_build/default/<root>], for
    runs from the project root), implementation typedtrees only,
    generated wrapper modules skipped, result sorted by source path. *)

type unit_info = {
  u_unit : string;  (** short unit name: ["Intern"], ["Engine"] *)
  u_source : string;  (** build-context-relative source: ["lib/util/intern.ml"] *)
  u_str : Typedtree.structure;
  u_text : string;  (** the source text; [""] when the source is absent *)
  u_mli : bool;  (** an interface sits next to the source *)
}

val load : roots:string list -> (unit_info list, string) result
(** [Error] names the first root that yields no unit. *)

val missing_mli : unit_info -> (Lint_rules.id * Location.t * string) option
(** The missing-mli check: a unit under [lib/] without an interface. *)
