(** Extensible message payloads.

    Each protocol layer extends [t] with its own constructors, so layers
    do not depend on one another's message types.  A layer's receive
    handler pattern-matches on its constructors and ignores the rest.

    Layers may register printers so that traces and logs can render any
    payload. *)

type t = ..

val register_printer : (t -> string option) -> unit
(** Printers are tried most-recently-registered first. *)

val to_string : t -> string
(** Falls back to ["<payload>"] when no printer matches. *)
