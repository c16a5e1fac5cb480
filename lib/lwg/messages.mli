(** Wire messages of the light-weight group layer.  All of them travel
    as bodies of HWG multicasts, so they inherit the carrier group's
    reliable-FIFO, virtually synchronous delivery. *)

open Plwg_sim
open Plwg_vsync.Types

(** Carrier-lineage tag attached to merge-round contributions.  Two
    holders of the same LWG view id are guaranteed to have delivered
    the same messages in it only if their carrier histories since its
    install are equivalent.  Equality of this tag encodes that
    equivalence; holders with different tags must not share the
    transition into a merged view. *)
type lineage =
  | L_continuous  (** carrier history linear since the view was installed *)
  | L_cut of { at : View_id.t; from : View_id.t; before : lineage }
      (** latest discontinuity, at carrier view [at] entered from
          [from]: readmitted from a superseded branch, or left behind
          by a merge round that moved the view's other holders on;
          [before] is the lineage up to it *)
  | L_rejoined of Node_id.t
      (** crash recovery: a history no other node can share *)

val lineage_is_continuous : lineage -> bool
val lineage_equal : lineage -> lineage -> bool

type Payload.t +=
  | L_data of {
      lwg : Gid.t;
      lview : View_id.t;
      seq : int;
      local : int;
      vc : (Node_id.t * int) list;  (** causal mode: sender's delivery vector *)
      body : Payload.t;
    }
      (** Paper's <DATA, lwg_id, data>, plus the view tag of Section 5.1
          that decouples LWG merges from HWG merges. *)
  | L_join_req of { lwg : Gid.t; joiner : Node_id.t }
  | L_leave_req of { lwg : Gid.t; leaver : Node_id.t }
  | L_stop of { lwg : Gid.t; epoch : int; lview : View_id.t }
      (** LWG-level flush begin, from the LWG coordinator. *)
  | L_stop_ok of { lwg : Gid.t; epoch : int; from : Node_id.t; sent : int }
      (** [sent] = how many messages [from] sent in the stopping view;
          the collected counts form the delivery cut. *)
  | L_view of {
      lwg : Gid.t;
      epoch : int;
      view : View.t;
      cut : (Node_id.t * int) list;
      switch_to : Gid.t option;  (** switch protocol: re-home to this HWG *)
    }
  | L_forward of { lwg : Gid.t; to_hwg : Gid.t }
      (** Forward pointer: the LWG moved; joiners should retry there. *)
  | L_gossip of { views : (Gid.t * View.t) list }
      (** Periodic local peer discovery (Section 6.3). *)
  | L_merge_views  (** Paper Figure 5: request a merge round on this HWG. *)
  | L_all_views of { from : Node_id.t; views : (Gid.t * View.t * lineage * int) list }
      (** Paper Figure 5's ALL-VIEWS / MAPPED-VIEWS, each view tagged
          with the sender's carrier lineage since it was installed and
          the sender's sequence floor for its LWG (the highest view seq
          it has seen or minted), which a merged id must exceed. *)
  | L_state of { lwg : Gid.t; lview : View_id.t; recipients : Node_id.t list; state : Payload.t }
      (** State transfer: application state captured by the coordinator
          at the flush synchronisation point, for the view's joiners. *)
