(** The lint's attribute vocabulary ([@@transition],
    [@@message_family], [@@zero_alloc_hot], [@alloc_ok],
    [@@shared_cell], [@@test_support]), read from compiler-libs [Parsetree.attributes];
    each name also accepts a [plwg.] prefix. *)

val transition : Parsetree.attributes -> bool
val message_family : Parsetree.attributes -> bool
val zero_alloc_hot : Parsetree.attributes -> bool
val alloc_ok : Parsetree.attributes -> bool

val shared_cell : Parsetree.attributes -> string option
(** [Some reason] when annotated ([reason] may be empty), [None]
    otherwise. *)

val test_support : Parsetree.attributes -> string option
(** Like {!shared_cell}, for [[@@test_support "reason"]] on an exported
    [val]: kept for tests or applications with no in-repo caller. *)
