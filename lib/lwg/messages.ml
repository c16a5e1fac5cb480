(** Wire messages of the light-weight group layer.  All of them travel
    as bodies of HWG multicasts, so they inherit the carrier group's
    reliable-FIFO, virtually synchronous delivery. *)

open Plwg_sim
open Plwg_vsync.Types

(** Carrier-lineage tag attached to merge-round contributions.  Two
    holders of the same LWG view id are guaranteed to have delivered
    the same messages in it only if their carrier histories since its
    install are equivalent: either both stayed on the mainline, or
    both went through the same carrier discontinuities.  Equality of
    this tag encodes that equivalence; holders with different tags
    must not share the transition into a merged view. *)
type lineage =
  | L_continuous  (** carrier history linear since the view was installed *)
  | L_cut of { at : View_id.t; from : View_id.t; before : lineage }
      (** latest discontinuity, at carrier view [at] entered from
          [from]: readmitted from a superseded branch, or left behind
          by a merge round that moved the view's other holders on;
          [before] is the lineage up to it *)
  | L_rejoined of Node_id.t
      (** crash recovery: a history no other node can share *)
[@@message_family]
(* [@@message_family]: dispatches on lineage that end in a catch-all
   must still name every constructor — the dispatch-wildcard rule
   treats this ordinary variant like an extension family. *)

let lineage_is_continuous = function L_continuous -> true | L_cut _ | L_rejoined _ -> false

let rec lineage_equal a b =
  match (a, b) with
  | L_continuous, L_continuous -> true
  | L_cut a, L_cut b -> View_id.equal a.at b.at && View_id.equal a.from b.from && lineage_equal a.before b.before
  | L_rejoined a, L_rejoined b -> Node_id.equal a b
  | (L_continuous | L_cut _ | L_rejoined _), _ -> false

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
      (** Periodic local peer discovery (Section 6.3); full views, so a
          node that abandoned a group can notice it is still listed. *)
  | L_merge_views  (** Paper Figure 5: request a merge round on this HWG. *)
  | L_all_views of { from : Node_id.t; views : (Gid.t * View.t * lineage * int) list }
      (** Paper Figure 5's ALL-VIEWS / MAPPED-VIEWS, each view tagged
          with the sender's carrier lineage since it was installed and
          the sender's sequence floor for its LWG (the highest view seq
          it has seen or minted), which a merged id must exceed. *)
  | L_state of { lwg : Gid.t; lview : View_id.t; recipients : Node_id.t list; state : Payload.t }
      (** State transfer: application state captured by the coordinator
          at the flush synchronisation point, for the view's joiners. *)

let () =
  Payload.register_printer (function
    | L_data { lwg; lview; seq; _ } -> Some (Format.asprintf "l-data(%a,%a,#%d)" Gid.pp lwg View_id.pp lview seq)
    | L_join_req { lwg; joiner } -> Some (Format.asprintf "l-join(%a,%a)" Gid.pp lwg Node_id.pp joiner)
    | L_leave_req { lwg; leaver } -> Some (Format.asprintf "l-leave(%a,%a)" Gid.pp lwg Node_id.pp leaver)
    | L_stop { lwg; epoch; _ } -> Some (Format.asprintf "l-stop(%a,e%d)" Gid.pp lwg epoch)
    | L_stop_ok { lwg; epoch; from; sent } ->
        Some (Format.asprintf "l-stop-ok(%a,e%d,%a,%d)" Gid.pp lwg epoch Node_id.pp from sent)
    | L_view { lwg; view; switch_to; _ } ->
        Some
          (Format.asprintf "l-view(%a,%a%s)" Gid.pp lwg View.pp view
             (match switch_to with Some h -> " ->" ^ Gid.to_string h | None -> ""))
    | L_forward { lwg; to_hwg } -> Some (Format.asprintf "l-forward(%a,%a)" Gid.pp lwg Gid.pp to_hwg)
    | L_gossip { views } -> Some (Format.asprintf "l-gossip(%d)" (List.length views))
    | L_merge_views -> Some "l-merge-views"
    | L_all_views { from; views } -> Some (Format.asprintf "l-all-views(%a,%d)" Node_id.pp from (List.length views))
    | L_state { lwg; lview; recipients; _ } ->
        Some
          (Format.asprintf "l-state(%a,%a,%a)" Gid.pp lwg View_id.pp lview Node_id.pp_list recipients)
    | _ -> None)
