(** Open-addressing hash table for non-negative int keys.

    Replaces [Stdlib.Hashtbl] on per-message lookup paths: a probe is a
    multiply, a mask and an array load (no seeded-hash C call, no
    bucket cells), and a lookup — hit or miss — allocates nothing.
    Keys are single-bound ([replace] semantics); negative keys are
    rejected.

    There is deliberately no unordered iteration: [iter_sorted] /
    [fold_sorted] / [bindings_sorted] walk bindings in ascending key
    order, so table walks are deterministic by construction — the
    property plwg-lint's hashtbl-iter-order rule has to enforce by hand
    for stdlib tables.

    Walks read a cached key-ascending snapshot, dropped by [replace] and
    [remove] and rebuilt by the next walk: repeated walks over a table
    whose bindings did not change allocate nothing.  A walk visits
    exactly the bindings present when it started, in key order, even if
    [f] mutates the table. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int [@@test_support "tests observe the table"]

val find : 'a t -> int -> 'a
(** @raise Not_found on a missing key, allocating nothing on the hit
    path (unlike [find_opt]'s [Some]). *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val bindings_sorted : 'a t -> (int * 'a) list [@@test_support "tests observe the table"]
(** The snapshot as a list (allocates the list). *)

val iter_sorted : (int -> 'a -> unit) -> 'a t -> unit
val fold_sorted : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
