(** Ordered reassembly buffer keyed by sequence number.

    Holds segments that arrived ahead of the delivery cursor;
    insertion, membership and min-extraction are O(log n), versus the
    full re-sort per arrival of a sorted association list. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int [@@test_support "tests observe the buffer"]

val is_empty : 'a t -> bool

val mem : 'a t -> int -> bool [@@test_support "tests observe the buffer"]

val add : 'a t -> int -> 'a -> unit
(** No-op when the sequence number is already buffered (first arrival
    wins; a retransmission carries the same body). *)

val min_opt : 'a t -> (int * 'a) option
(** Lowest buffered sequence number, if any. *)

val remove_min : 'a t -> unit

val clear : 'a t -> unit

val to_list : 'a t -> (int * 'a) list [@@test_support "tests observe the buffer"]
(** Ascending by sequence number. *)
