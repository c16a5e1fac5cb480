(** Typed poly-compare: an occurrence of a polymorphic structural
    operation ([=], [compare], [List.mem], ...) whose instantiated
    compared type contains a protocol type, in applied or value
    position; plus, at any type, [Hashtbl.hash] and a bare [compare]
    passed as a value.  One finding per site. *)

val check :
  protocol:Tlint_types.SSet.t -> unit:string -> applied:bool -> string -> Typedtree.expression -> string option
(** [check ~protocol ~unit ~applied path e]: the finding's message for
    the identifier [e], whose canonical, alias-resolved path is [path]
    and which is [applied] when it is the function of an application. *)
