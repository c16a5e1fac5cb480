(** Growable ring buffer with amortized-O(1) [push_back]/[drop_front].

    The FIFO workhorse of the stack's hot paths: the transport's
    unacked send window (cumulative acks pop from the front), the HWG
    total-order pending queue and the per-sender retransmission
    stores.  Elements sit in the slots unboxed: pushing, peeking and
    dropping allocate nothing.  Empty and vacated slots hold the
    [dummy] given to {!create}, so the simulator's closures do not
    retain dead elements. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty deque.  [dummy] fills empty slots
    and is never returned by {!get} or the iterators; pick a value the
    caller can tell apart, since {!front_or} returns whatever [~none]
    it is given. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit

val front_or : 'a t -> none:'a -> 'a
(** The front element, or [none] when the deque is empty. *)

val drop_front : 'a t -> unit
(** Remove the front element; a no-op on an empty deque. *)

val get : 'a t -> int -> 'a
(** [get t i] is the element at logical position [i] (0 = front).
    @raise Invalid_argument when out of bounds. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front to back. *)

val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b

val to_list : 'a t -> 'a list [@@test_support "tests observe the contents"]
(** Front-to-back order. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only matching elements, preserving order.  O(n) — the slow
    path for out-of-order removals. *)

val clear : 'a t -> unit
