(** Network reachability: partitions and crashed nodes.

    The universe is a fixed set of nodes [0 .. n-1].  At any instant the
    alive nodes are divided into connectivity classes; two nodes can
    exchange messages iff both are alive and in the same class.  A network
    partition is installed by [set_partition] and removed by [heal]; in an
    asynchronous system this also models "virtual" partitions caused by
    congestion (paper, Section 4). *)

type t

val create : n_nodes:int -> t

val n_nodes : t -> int

val all_nodes : t -> Node_id.t list

val set_partition : t -> Node_id.t list list -> unit
(** Install connectivity classes.  Every node of the universe must appear
    in exactly one class.  @raise Invalid_argument otherwise. *)

val heal : t -> unit
(** Collapse all classes into one (fully connected network). *)

val crash : t -> Node_id.t -> unit

val recover : t -> Node_id.t -> unit

val is_alive : t -> Node_id.t -> bool

val reachable : t -> Node_id.t -> Node_id.t -> bool
(** [reachable t a b] iff both alive and in the same connectivity class.
    A node always reaches itself while alive. *)

val component_of : t -> Node_id.t -> Node_id.t list
(** Alive nodes currently reachable from the given node (including it). *)
