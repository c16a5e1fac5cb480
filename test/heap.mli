(** Imperative binary min-heap, the reference model for the timing
    wheel ([Plwg_util.Wheel]): property tests check that the wheel pops
    events in the heap's order.

    Elements are ordered by a user-supplied comparison.  Ties must be
    broken by the caller (the wheel tests order events by
    [(tick, sequence-number)]) so that extraction order is total and
    deterministic. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option

val pop : 'a t -> 'a option
(** Remove and return the minimum element, if any. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Snapshot of the contents in heap (not sorted) order. *)
