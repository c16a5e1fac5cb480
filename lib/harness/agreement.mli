(** The convergence predicates the harness's oracles share: who can
    talk, and whether the holders of one group's views there agree. *)

open Plwg_sim

val components : Topology.t -> among:Node_id.t list -> Node_id.t list list
(** The distinct connectivity classes of alive nodes, each restricted
    to [among] (ascending), in the order of their first node in
    [among]. *)

type verdict =
  | Agreed  (** no holder, or one view whose members are exactly the holders *)
  | Divergent  (** two holders hold different views *)
  | Members_differ of Node_id.t list  (** the shared view's members, which are not the holders *)

val holders_agree : (Node_id.t * Plwg_vsync.Types.View.t) list -> verdict
(** The verdict on the holders of one group's views inside one class,
    given in ascending node order. *)
