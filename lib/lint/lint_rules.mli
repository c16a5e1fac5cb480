(** The plwg-lint rule catalog: rule identifiers, one-line documentation
    and the finding record shared by the engine, reporters and baseline. *)

type id =
  | Hashtbl_iter_order  (** unordered [Hashtbl.iter]/[fold]; use [Plwg_util.Tbl] *)
  | Random_outside_rng  (** [Stdlib.Random] outside [Plwg_util.Rng] *)
  | Wall_clock  (** [Unix.gettimeofday]/[Sys.time]/... *)
  | Poly_compare_protocol  (** polymorphic [=]/[compare]/[Hashtbl.hash] on protocol values *)
  | Dispatch_wildcard  (** catch-all dispatch missing declared message constructors *)
  | Lstate_mutation  (** lstate field mutated outside a [\@\@transition] function *)
  | Missing_mli  (** lib/ module without an interface *)
  | Gid_string_boundary
      (** [Gid.to_string]/[View_id.to_string] in lib/ code outside the
          trace boundary (Engine.trace thunks, Logs, Payload printers) *)
  | Runtime_boundary
      (** direct [Engine.] access outside [lib/sim/] and [lib/runtime/];
          protocol layers must code against [Plwg_runtime.Rt] *)
  | Shared_cell
      (** module-global mutable cell in lib/ without a
          [\@\@shared_cell] audit annotation (domain-safety report) *)
  | Hot_path_alloc
      (** allocating construct inside a
          [\@\@zero_alloc_hot] function body *)

type severity = Warning | Error

type finding = {
  rule : id;
  file : string;  (** path as given on the command line, '/'-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  source_line : string;  (** trimmed text of the offending line; the baseline key *)
  message : string;
}

val all : id list
val name : id -> string
val of_name : string -> id option
val describe : id -> string

val under_lib : string -> bool
(** True for paths under a root named [lib]: library code, where
    findings are always errors and interfaces are required. *)

val compare_finding : finding -> finding -> int
(** Total order by (file, line, col, rule name, message) — report order
    is independent of discovery order. *)
