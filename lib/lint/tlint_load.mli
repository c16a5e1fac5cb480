(** Discovery and loading of the [.cmt] files the analyses walk:
    recursive scan of each root (and of [_build/default/<root>], for
    runs from the project root), implementation typedtrees with their
    interface typedtrees, generated wrapper modules skipped, result
    sorted by source path. *)

type intf = {
  i_sig : Typedtree.signature;
  i_text : string;  (** the [.mli] text; [""] when the source is absent *)
}

type unit_info = {
  u_unit : string;  (** short unit name: ["Intern"], ["Engine"] *)
  u_modname : string;
      (** compilation unit name: ["Plwg_util__Intern"]; tells apart
          same-named units of different libraries *)
  u_source : string;  (** build-context-relative source: ["lib/util/intern.ml"] *)
  u_str : Typedtree.structure;
  u_text : string;  (** the source text; [""] when the source is absent *)
  u_mli : bool;  (** an interface sits next to the source *)
  u_intf : intf option;  (** the interface, from the [.cmti] beside the [.cmt] *)
}

val load : roots:string list -> (unit_info list, string) result
(** [Error] names the first root that yields no unit. *)

val missing_mli : unit_info -> (Lint_rules.id * Location.t * string) option
(** The missing-mli check: a unit under [lib/] without an interface. *)
