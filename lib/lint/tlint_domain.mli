(** Domain-safety ownership analysis: every mutable cell in the
    analyzed units (mutable record labels, container-typed labels,
    module-global mutable roots) classified as [node-local],
    [engine-owned] or [shared], with a {!Lint_rules.Shared_cell}
    finding for each unannotated global root. *)

type cell = {
  c_id : string;
  c_kind : string;  (** ["field"] or ["global"] *)
  c_class : string;  (** ["node-local"], ["engine-owned"] or ["shared"] *)
  c_via : string;  (** ["annotation"], ["root"], ["unannotated"] or [""] *)
  c_reason : string;
  c_file : string;
  c_line : int;
  c_mut : string;  (** ["mutable"], ["container"] or ["root"] *)
  c_mutated_in : string list;  (** units with direct mutation evidence *)
}

val analyze :
  Tlint_load.unit_info list ->
  cell list * (string * Lint_rules.id * Location.t * string) list
(** Cells sorted by (id, file, line), and findings tagged with their
    source file. *)

val render : cell list -> string
(** The checked-in [domain-safety.json]: schema ["plwg-domain-safety/1"],
    one cell per line, byte-deterministic. *)
