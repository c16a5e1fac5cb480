open Plwg_sim
module Rt = Plwg_runtime.Rt
open Plwg_vsync.Types
open Messages
module Hwg = Plwg_vsync.Hwg
module Client = Plwg_naming.Client
module Db = Plwg_naming.Db
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector
module Itbl = Plwg_util.Itbl

(* silence before a joiner forms a singleton LWG view *)
let join_grace = Time.ms 1500

(* local peer-discovery gossip interval *)
let gossip_period = Time.ms 300

(* how long a HWG may stay useless before we leave it *)
let shrink_grace = Time.sec 2

type mode = Direct | Static of Gid.t | Dynamic

type config = { params : Policy.params; policy_period : Time.span }

let default_config = { params = Policy.default_params; policy_period = Time.sec 1 }

type callbacks = {
  on_view : Gid.t -> View.t -> unit;
  on_data : Gid.t -> src:Node_id.t -> Payload.t -> unit;
}

let no_callbacks = { on_view = (fun _ _ -> ()); on_data = (fun _ ~src:_ _ -> ()) }

type state_callbacks = {
  capture : Gid.t -> Payload.t;
  install_state : Gid.t -> src:Node_id.t -> Payload.t -> unit;
}

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type lstatus =
  | Resolving of { mutable r_since : Time.t }
  | Joining_hwg
  | Announcing of { mutable a_since : Time.t }
  | L_normal
  | L_stopped
  | Draining of { d_view : View.t; d_cut : int Node_id.Map.t; d_switch : Gid.t option; d_leaving : bool }
  | Migrating

type lflush = {
  lf_epoch : int;
  lf_old_members : Node_id.Set.t;
  lf_new_members : Node_id.Set.t;
  lf_switch : Gid.t option;
  mutable lf_oks : int Node_id.Map.t;
}

type lstate = {
  lwg : Gid.t;
  ordering : ordering;  (** Fifo or Causal; Total is not offered at the LWG level *)
  mutable hwg : Gid.t option;
  mutable status : lstatus;
  mutable view : View.t option;
  ancestors : unit Itbl.t; (* View_id.code of every view installed over or merged away *)
  mutable provisional : View_id.t option;
  mutable next_seq : int;
  mutable total_sent : int; (* monotone across views: delivery-invariant tag *)
  mutable delivered : int array;
      (* per sender: count delivered in the current view, 0 = none.
         Grows to the highest sender seen; zeroed in place at install *)
  mutable pend_cur : (Node_id.t * int * int * (Node_id.t * int) list * Payload.t) list
      (* src, seq, local, vc, body: received but not yet deliverable in the current view *);
  mutable pend_new : (View_id.t * (Node_id.t * int * int * (Node_id.t * int) list * Payload.t)) list;
  mutable outbox : Payload.t list; (* reversed *)
  mutable epoch : int;
  mutable flush : lflush option;
  mutable leaving : bool;
  mutable awaiting_state : Time.t option; (* joiner holding deliveries until L_state (or grace) *)
  mutable pending_joiners : Node_id.Set.t;
  mutable pending_leavers : Node_id.Set.t;
  mutable lineage : lineage;
      (* carrier history since this view was installed.  Anything but
         [L_continuous] means the view may have been superseded (or its
         deliveries diverged) elsewhere: this node must not mint
         successor ids from it and must reconcile through a merge
         round, where the tag keeps divergent cohorts in separate
         transitions (see [compute_merges]). *)
}

module Imap = Map.Make (Int)

type hstate = {
  hgid : Gid.t;
  mutable hview : View.t option;
  mutable all_views : (Gid.t * View.t * lineage * int) list Node_id.Map.t;
  mutable sent_all_views : bool;
  mutable flushing : int list;
      (* Gid.code of each LWG with an L_stop_ok or L_view delivered in
         the current carrier view (see [note_lflush]) *)
  mutable forwards : Gid.t Imap.t; (* keyed by Gid.code of the moved LWG *)
  mutable empty_since : Time.t option;
}

type t = {
  node : Node_id.t;
  mode : mode;
  config : config;
  rt : Rt.t;
  tracing : bool; (* [Rt.tracing rt]: guards the per-delivery trace thunk *)
  callbacks : callbacks;
  ns : Client.t option;
  hwg : Hwg.t;
  lstates : lstate Itbl.t; (* keyed by Gid.code *)
  hstates : hstate Itbl.t; (* keyed by Gid.code *)
  lseq_floor : int Itbl.t; (* highest LWG view seq seen per Gid.code, across incarnations *)
  mutable state_callbacks : state_callbacks option;
  mutable lwg_gid_counter : int;
  mutable switches : int;
  mutable merges : int;
}

let hwg_service t = t.hwg
let switch_count t = t.switches
let merge_count t = t.merges

let lstate_of t lwg = Itbl.find_opt t.lstates (Gid.code lwg)

(* Per-message variant: the hit path allocates nothing (see
   [Hwg.lookup_exn]). *)
let lstate_exn t lwg = Itbl.find t.lstates (Gid.code lwg)

let hstate_of t hgid =
  let key = Gid.code hgid in
  match Itbl.find t.hstates key with
  | h -> h
  | exception Not_found ->
      let h =
        {
          hgid;
          hview = None;
          all_views = Node_id.Map.empty;
          sent_all_views = false;
          flushing = [];
          forwards = Imap.empty;
          empty_since = None;
        }
      in
      Itbl.replace t.hstates key h;
      h

let fresh_gid t =
  t.lwg_gid_counter <- t.lwg_gid_counter + 1;
  (* LWG ids live in a distinct range from HWG ids minted by the vsync
     layer only by convention; both are (seq, origin) pairs. *)
  { Gid.seq = 1_000_000 + t.lwg_gid_counter; origin = t.node }

let delivered_count (l : lstate) sender = if sender < Array.length l.delivered then l.delivered.(sender) else 0

(* Wire form of the causal vector: the senders delivered from in this
   view (non-zero count), in ascending node id. *)
let vc_bindings (l : lstate) =
  let acc = ref [] in
  for i = Array.length l.delivered - 1 downto 0 do
    if l.delivered.(i) > 0 then acc := (i, l.delivered.(i)) :: !acc
  done;
  !acc

let multicast_h t hgid payload = if Hwg.is_member t.hwg hgid then Hwg.send t.hwg hgid payload

let lwg_coordinator view = match view.View.members with [] -> -1 | m :: _ -> m

(* Membership tests of a member list against a set, e.g. an LWG view's
   members against its carrier's.  [Node_id.Set.subset] on two sets of
   different shapes allocates; these walks do not. *)
let rec all_present present = function
  | [] -> true
  | m :: rest -> Node_id.Set.mem m present && all_present present rest
[@@zero_alloc_hot]

let hview_members t (l : lstate) =
  match l.hwg with
  | Some h -> (
      match (hstate_of t h).hview with Some hv -> View.members_set hv | None -> Node_id.Set.empty)
  | None -> Node_id.Set.empty

(* ------------------------------------------------------------------ *)
(* Naming-service bookkeeping                                          *)
(* ------------------------------------------------------------------ *)

(* The coordinator records every new view.  A non-coordinator also
   writes when it still holds a provisional (creation-race) entry, so
   the placeholder gets retired from the database. *)
let[@transition] ns_set_view t (l : lstate) view =
  match (t.mode, t.ns, l.hwg) with
  | Dynamic, Some ns, Some hwg when Node_id.equal (lwg_coordinator view) t.node || Option.is_some l.provisional ->
      let preds =
        match l.provisional with Some pv -> pv :: view.View.preds | None -> view.View.preds
      in
      l.provisional <- None;
      let hwg_view = Option.map (fun v -> v.View.id) (Hwg.view_of t.hwg hwg) in
      Client.set ns
        { Db.lwg = l.lwg; lwg_view = view.View.id; members = view.View.members; hwg; hwg_view; preds }
        ~k:(fun _acked -> ())
  | _, _, _ -> ()

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

(* [counts] widened to cover [sender], counts kept *)
let widened counts sender =
  let wider = Array.make (max (sender + 1) (2 * Array.length counts)) 0 in
  Array.blit counts 0 wider 0 (Array.length counts);
  wider

let[@transition] deliver t (l : lstate) ~src ~seq ~local body =
  if src >= Array.length l.delivered then
    (l.delivered <- widened l.delivered src) [@alloc_ok "a sender beyond the counters: once per lstate and sender"];
  l.delivered.(src) <- seq + 1;
  (match l.view with
  | Some view when t.tracing ->
      (Rt.trace t.rt (fun () ->
           Plwg_obs.Event.Group_delivered
             { layer = Lwg; node = t.node; group = Gid.to_string l.lwg; view_seq = view.View.id.View_id.seq;
               view_coord = view.View.id.View_id.coord; origin = src; local_id = local })
      [@alloc_ok "guarded by t.tracing"])
  | Some _ | None -> ());
  t.callbacks.on_data l.lwg ~src body
[@@zero_alloc_hot]

let rec vc_delivered (l : lstate) ~src = function
  | [] -> true
  | (node, count) :: rest ->
      (Node_id.equal node src || delivered_count l node >= count) && vc_delivered l ~src rest
[@@zero_alloc_hot]

(* A buffered message is deliverable when it is its sender's next and,
   in causal mode, everything it causally depends on was delivered. *)
let l_deliverable (l : lstate) ~src ~seq ~vc =
  Option.is_none l.awaiting_state
  && seq = delivered_count l src
  &&
  match l.ordering with
  | Fifo | Total -> true
  | Causal -> vc_delivered l ~src vc
[@@zero_alloc_hot]

let rec any_deliverable (l : lstate) = function
  | [] -> false
  | (src, seq, _, vc, _) :: rest -> l_deliverable l ~src ~seq ~vc || any_deliverable l rest
[@@zero_alloc_hot]

let rec deliver_all t l = function
  | [] -> ()
  | (src, seq, local, _, body) :: rest ->
      deliver t l ~src ~seq ~local body;
      deliver_all t l rest

(* Every ready message of one pass is delivered, in buffer order; the
   pass repeats until none is ready.  Only a pass that finds something
   ready allocates. *)
let[@transition] rec drain_pend_cur t (l : lstate) =
  if any_deliverable l l.pend_cur then begin
    let ready, rest =
      (List.partition (fun (src, seq, _, vc, _) -> l_deliverable l ~src ~seq ~vc) l.pend_cur
      [@alloc_ok "something is ready: the split costs less than the deliveries it feeds"])
    in
    l.pend_cur <- rest;
    deliver_all t l ready;
    drain_pend_cur t l
  end
[@@zero_alloc_hot]

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)
(* ------------------------------------------------------------------ *)

(* No view to send in: queued until the next install. *)
let[@transition] queue_send (l : lstate) body = l.outbox <- body :: l.outbox

let[@transition] send_in t (l : lstate) body =
  match l.view with
  | Some view when (match l.status with L_normal -> true | _ -> false) -> (
      match l.hwg with
      | Some hwg ->
          let seq = l.next_seq and local = l.total_sent in
          l.next_seq <- seq + 1;
          l.total_sent <- local + 1;
          let vc =
            match l.ordering with
            | Causal -> (vc_bindings l [@alloc_ok "the causal vector ships with the message"])
            | Fifo | Total -> []
          in
          multicast_h t hwg
            (L_data { lwg = l.lwg; lview = view.View.id; seq; local; vc; body } [@alloc_ok "the one payload of a send"])
      | None -> queue_send l body)
  | Some _ | None -> queue_send l body
[@@zero_alloc_hot]

let[@transition] drain_outbox t (l : lstate) =
  let queued = List.rev l.outbox in
  l.outbox <- [];
  List.iter (fun body -> send_in t l body) queued

(* ------------------------------------------------------------------ *)
(* View installation                                                   *)
(* ------------------------------------------------------------------ *)

let note_lseq t lwg seq =
  let key = Gid.code lwg in
  let floor = try Itbl.find t.lseq_floor key with Not_found -> 0 in
  if seq > floor then Itbl.replace t.lseq_floor key seq

let lseq_floor_of t lwg = try Itbl.find t.lseq_floor (Gid.code lwg) with Not_found -> 0

let[@transition] install_lview t (l : lstate) view =
  note_lseq t l.lwg view.View.id.View_id.seq;
  l.lineage <- L_continuous;
  (match l.view with Some old -> Itbl.replace l.ancestors (View_id.code old.View.id) () | None -> ());
  l.view <- Some view;
  l.next_seq <- 0;
  Array.fill l.delivered 0 (Array.length l.delivered) 0;
  l.pend_cur <- [];
  Rt.count t.rt "lwg.views_installed";
  if t.tracing then
    Rt.trace t.rt (fun () ->
        Plwg_obs.Event.View_installed
          { layer = Lwg; node = t.node; group = Gid.to_string l.lwg; view_seq = view.View.id.View_id.seq;
            view_coord = view.View.id.View_id.coord; members = view.View.members });
  t.callbacks.on_view l.lwg view;
  (* feed traffic that raced ahead of the install; entries for views
     that meanwhile became ancestors can never be replayed — drop them *)
  (match l.pend_new with
  | [] -> ()
  | pend_new ->
      let early, rest = List.partition (fun (vid, _) -> View_id.equal vid view.View.id) pend_new in
      l.pend_new <- List.filter (fun (vid, _) -> not (Itbl.mem l.ancestors (View_id.code vid))) rest;
      let early = List.sort (fun (_, (_, a, _, _, _)) (_, (_, b, _, _, _)) -> Int.compare a b) early in
      List.iter
        (fun (_, (src, seq, local, vc, body)) ->
          if seq >= delivered_count l src then l.pend_cur <- (src, seq, local, vc, body) :: l.pend_cur)
        early);
  drain_pend_cur t l

(* Close an open LWG flush, pairing its Flush_begin with a Flush_end
   carrying [outcome].  No-op when no flush is in progress. *)
let[@transition] end_lflush t (l : lstate) ~outcome =
  match l.flush with
  | None -> ()
  | Some flush ->
      l.flush <- None;
      Rt.trace t.rt (fun () ->
          Plwg_obs.Event.Flush_end { node = t.node; group = Gid.to_string l.lwg; epoch = flush.lf_epoch; outcome })

let remove_lstate t (l : lstate) ~installed =
  end_lflush t l ~outcome:"left";
  if installed then
    Rt.trace t.rt (fun () -> Plwg_obs.Event.Group_left { layer = Lwg; node = t.node; group = Gid.to_string l.lwg });
  Itbl.remove t.lstates (Gid.code l.lwg)

let[@transition] check_migration t (l : lstate) =
  match (l.status, l.view, l.hwg) with
  | Migrating, Some view, Some h2 -> (
      match Hwg.view_of t.hwg h2 with
      | Some hv when all_present (View.members_set hv) view.View.members ->
          l.status <- L_normal;
          ns_set_view t l view;
          drain_outbox t l
      | Some _ | None -> ())
  | _, _, _ -> ()

let[@transition] finish_drain t (l : lstate) ~d_view ~d_switch ~d_leaving =
  if d_leaving then remove_lstate t l ~installed:true
  else begin
    install_lview t l d_view;
    match d_switch with
    | None ->
        l.status <- L_normal;
        ns_set_view t l d_view;
        drain_outbox t l
    | Some h2 ->
        l.hwg <- Some h2;
        ignore (hstate_of t h2);
        l.status <- Migrating;
        Hwg.join t.hwg h2;
        check_migration t l
  end

let try_finish_drain t (l : lstate) =
  match l.status with
  | Draining { d_view; d_cut; d_switch; d_leaving } ->
      let present = hview_members t l in
      let satisfied =
        Node_id.Map.for_all
          (fun sender upto ->
            delivered_count l sender >= upto || not (Node_id.Set.mem sender present))
          d_cut
      in
      if satisfied then finish_drain t l ~d_view ~d_switch ~d_leaving
  | Resolving _ | Joining_hwg | Announcing _ | L_normal | L_stopped | Migrating -> ()

(* ------------------------------------------------------------------ *)
(* The LWG flush protocol (join / leave / switch)                      *)
(* ------------------------------------------------------------------ *)

let[@transition] start_lflush t (l : lstate) ~new_members ~switch =
  match (l.status, l.view, l.hwg) with
  | L_normal, Some view, Some hwg when Node_id.equal (lwg_coordinator view) t.node && Option.is_none l.flush ->
      l.epoch <- l.epoch + 1;
      l.flush <-
        Some
          {
            lf_epoch = l.epoch;
            lf_old_members = View.members_set view;
            lf_new_members = new_members;
            lf_switch = switch;
            lf_oks = Node_id.Map.empty;
          };
      l.pending_joiners <- Node_id.Set.empty;
      l.pending_leavers <- Node_id.Set.empty;
      Rt.count t.rt "lwg.flushes_started";
      Rt.trace t.rt (fun () ->
          Plwg_obs.Event.Flush_begin { node = t.node; group = Gid.to_string l.lwg; epoch = l.epoch });
      multicast_h t hwg (L_stop { lwg = l.lwg; epoch = l.epoch; lview = view.View.id })
  | _, _, _ -> ()

let start_switch t (l : lstate) target =
  match l.view with
  | Some view when Option.is_none l.flush && (match l.status with L_normal -> true | _ -> false) ->
      t.switches <- t.switches + 1;
      Rt.count t.rt "lwg.switches";
      start_lflush t l ~new_members:(View.members_set view) ~switch:(Some target)
  | Some _ | None -> ()

let[@transition] handle_lstop t (l : lstate) ~epoch ~lview =
  match (l.status, l.view, l.hwg) with
  | (L_normal | L_stopped), Some view, Some hwg when View_id.equal view.View.id lview && epoch >= l.epoch ->
      l.epoch <- epoch;
      l.status <- L_stopped;
      multicast_h t hwg (L_stop_ok { lwg = l.lwg; epoch; from = t.node; sent = l.next_seq })
  | _, _, _ -> ()

let finish_lflush t (l : lstate) flush =
  match (l.view, l.hwg) with
  | Some view, Some hwg ->
      end_lflush t l ~outcome:"installed";
      (* everyone left: nothing to install *)
      if not (Node_id.Set.is_empty flush.lf_new_members) then begin
        (* HWG's rule: minted under this node, above every seq it has
           seen or minted for the LWG, and recorded at once *)
        let id = { View_id.coord = t.node; seq = 1 + max view.View.id.View_id.seq (lseq_floor_of t l.lwg) } in
        note_lseq t l.lwg id.View_id.seq;
        let new_view = View.of_set ~id ~group:l.lwg ~members:flush.lf_new_members ~preds:[ view.View.id ] in
        multicast_h t hwg
          (L_view
             {
               lwg = l.lwg;
               epoch = flush.lf_epoch;
               view = new_view;
               cut = Node_id.Map.bindings flush.lf_oks;
               switch_to = flush.lf_switch;
             });
        (* state transfer: the coordinator captures application state
           at this synchronisation point and ships it to the joiners;
           carrier FIFO puts it after their L_VIEW *)
        (match t.state_callbacks with
        | Some callbacks when Option.is_none flush.lf_switch ->
            let joiners = Node_id.Set.elements (Node_id.Set.diff flush.lf_new_members flush.lf_old_members) in
            if not (List.is_empty joiners) then
              multicast_h t hwg
                (L_state { lwg = l.lwg; lview = id; recipients = joiners; state = callbacks.capture l.lwg })
        | Some _ | None -> ())
      end
  | _, _ -> ()

let[@transition] handle_lstop_ok t (l : lstate) ~epoch ~from ~sent =
  match l.flush with
  | Some flush when flush.lf_epoch = epoch && Node_id.Set.mem from flush.lf_old_members ->
      flush.lf_oks <- Node_id.Map.add from sent flush.lf_oks;
      if Node_id.Set.for_all (fun m -> Node_id.Map.mem m flush.lf_oks) flush.lf_old_members then
        finish_lflush t l flush
  | Some _ | None -> ()

let[@transition] handle_lview t ~carrier ~lwg ~epoch ~view ~cut ~switch_to =
  match lstate_of t lwg with
  | None ->
      (* not involved, but remember where the group went *)
      (match switch_to with
      | Some h2 ->
          let hs = hstate_of t carrier in
          hs.forwards <- Imap.add (Gid.code lwg) h2 hs.forwards
      | None -> ());
      (* a join request of ours may have been absorbed after we already
         abandoned the group: ask to be flushed back out, or we linger
         in the view as a phantom member *)
      if View.mem t.node view then multicast_h t carrier (L_leave_req { lwg; leaver = t.node })
  | Some l -> (
      let am_new = View.mem t.node view in
      let was_old = match l.view with Some v -> List.exists (View_id.equal v.View.id) view.View.preds | None -> false in
      (match switch_to with
      | Some h2 when not am_new ->
          let hs = hstate_of t carrier in
          hs.forwards <- Imap.add (Gid.code lwg) h2 hs.forwards
      | Some _ | None -> ());
      if epoch >= l.epoch then l.epoch <- epoch;
      match (am_new, was_old) with
      | true, true ->
          l.status <- Draining { d_view = view; d_cut = Node_id.Map.of_seq (List.to_seq cut); d_switch = switch_to; d_leaving = false };
          try_finish_drain t l
      | true, false -> (
          (* a joiner: no old traffic to drain *)
          match l.status with
          | Announcing _ | Joining_hwg | Resolving _ ->
              (* the coordinator runs the group on [carrier]: follow it,
                 or view and mapping disagree from the first install *)
              l.hwg <- Some carrier;
              ignore (hstate_of t carrier);
              if Option.is_some t.state_callbacks && Option.is_none switch_to then
                l.awaiting_state <- Some (Rt.now t.rt);
              l.status <- Draining { d_view = view; d_cut = Node_id.Map.empty; d_switch = switch_to; d_leaving = false };
              try_finish_drain t l
          | L_normal | L_stopped | Draining _ | Migrating -> ())
      | false, true ->
          (* I left (voluntarily): drain the cut, then go *)
          l.status <- Draining { d_view = view; d_cut = Node_id.Map.of_seq (List.to_seq cut); d_switch = switch_to; d_leaving = true };
          try_finish_drain t l
      | false, false -> ())

(* ------------------------------------------------------------------ *)
(* Data path                                                           *)
(* ------------------------------------------------------------------ *)

let request_merge t carrier =
  let hs = hstate_of t carrier in
  if not hs.sent_all_views then begin
    Rt.count t.rt "lwg.local_discoveries";
    Rt.trace t.rt (fun () ->
        Plwg_obs.Event.Reconcile_step
          { node = t.node; step = Plwg_obs.Event.Local_discovery; group = Gid.to_string carrier });
    multicast_h t carrier L_merge_views
  end

let draining_into (l : lstate) lview =
  match l.status with Draining { d_view; _ } -> View_id.equal d_view.View.id lview | _ -> false
[@@zero_alloc_hot]

let[@transition] handle_ldata t ~carrier ~src ~lwg ~lview ~seq ~local ~vc ~body =
  match lstate_exn t lwg with
  | exception Not_found -> () (* filtered: the interference cost was already paid at the CPU *)
  | l -> (
      match l.view with
      | Some view when View_id.equal view.View.id lview ->
          if l_deliverable l ~src ~seq ~vc then begin
            deliver t l ~src ~seq ~local body;
            drain_pend_cur t l;
            try_finish_drain t l
          end
          else if seq >= delivered_count l src then
            (l.pend_cur <- (src, seq, local, vc, body) :: l.pend_cur)
            [@alloc_ok "out of order: buffered until deliverable"]
      | _ when draining_into l lview ->
          (l.pend_new <- (lview, (src, seq, local, vc, body)) :: l.pend_new)
          [@alloc_ok "ahead of the install this node is draining into"]
      | Some _ when Itbl.mem l.ancestors (View_id.code lview) -> () (* stale: already cut *)
      | Some _ ->
          (* a concurrent view of my LWG shares this HWG: local peer
             discovery (Section 6.3) -> merge-views (Figure 5).  The
             tag may also be a view of my own lineage that peers
             installed moments before I do (the shrink races the data
             under loss): buffer the message so the install replays it
             instead of silently cutting it from the view. *)
          (l.pend_new <- (lview, (src, seq, local, vc, body)) :: l.pend_new)
          [@alloc_ok "a concurrent view: buffered for the merge round"];
          request_merge t carrier
      | None -> ())
[@@zero_alloc_hot]

(* ------------------------------------------------------------------ *)
(* Merge-views protocol (Figure 5)                                     *)
(* ------------------------------------------------------------------ *)

(* how long a carrier coordinator waits, after its own ALL-VIEWS, for
   the other members' before it closes the round without them *)
let round_wait = Time.ms 50

let my_views_on t carrier =
  Itbl.fold_sorted
    (fun _ (l : lstate) acc ->
      match (l.hwg, l.view, l.status) with
      | Some h, Some view, (L_normal | L_stopped) when Gid.equal h carrier ->
          (l.lwg, view, l.lineage, lseq_floor_of t l.lwg) :: acc
      | _, _, _ -> acc)
    t.lstates []

(* The gossip variant without lineage tags, folded directly: it is
   built every gossip period on every carrier. *)
let my_plain_views_on t carrier =
  Itbl.fold_sorted
    ((fun _ (l : lstate) acc ->
       match (l.hwg, l.view, l.status) with
       | Some h, Some view, (L_normal | L_stopped) when Gid.equal h carrier ->
           ((l.lwg, view) :: acc) [@alloc_ok "the gossiped list itself"]
       | _, _, _ -> acc)
    [@alloc_ok "one closure per build"])
    t.lstates []
[@@zero_alloc_hot]

let all_answered hs =
  match hs.hview with Some hv -> List.for_all (fun m -> Node_id.Map.mem m hs.all_views) hv.View.members | None -> false

(* A round closes at the next carrier flush.  The carrier coordinator
   forces it once every member of its carrier view has answered, or
   [round_wait] after its own answer if one has not: a member that
   never answers delays the round but does not stall it. *)
let handle_merge_views t ~carrier =
  let hs = hstate_of t carrier in
  if not hs.sent_all_views then begin
    hs.sent_all_views <- true;
    multicast_h t carrier (L_all_views { from = t.node; views = my_views_on t carrier });
    if Hwg.am_coordinator t.hwg carrier then begin
      let round = hs.hview in
      Rt.after_node_ t.rt t.node round_wait (fun () ->
          if hs.hview == round && not (all_answered hs) then Hwg.force_flush t.hwg carrier)
    end
  end

let handle_all_views t ~carrier ~from ~views =
  let hs = hstate_of t carrier in
  hs.all_views <- Node_id.Map.add from views hs.all_views;
  if Hwg.am_coordinator t.hwg carrier && all_answered hs then Hwg.force_flush t.hwg carrier

(* An L_stop_ok or L_view of [lwg] was delivered: its coordinator may be
   minting from the view it contributed, so the LWG sits this carrier
   view's round out. *)
let note_lflush t carrier lwg =
  let hs = hstate_of t carrier in
  let key = Gid.code lwg in
  if not (List.mem key hs.flushing) then hs.flushing <- key :: hs.flushing

(* EVS-style transitional step.  [holders] are the merge contributors
   of my current view id, which diverged; sub-cohorts sharing a lineage
   value were synchronised by their common carrier, divergent
   sub-cohorts were not, so only ONE sub-cohort may install the merged
   view directly — the others bridge through a transitional view first,
   keeping their possibly-divergent deliveries out of the direct
   transition.  The direct sub-cohort is the continuous one, else the
   one with the smallest member.  Every choice is a function of
   ALL-VIEWS, so all flush participants agree. *)
let transitional_of ~holders ~seq ~lwg node (mine : View.t) =
  let _, _, my_lin, _ = List.find (fun (n, _, _, _) -> Node_id.equal n node) holders in
  let direct =
    if List.exists (fun (_, _, k, _) -> lineage_is_continuous k) holders then L_continuous
    else (
      match List.sort (fun (a, _, _, _) (b, _, _, _) -> Node_id.compare a b) holders with
      | (_, _, k, _) :: _ -> k
      | [] -> my_lin)
  in
  if lineage_equal my_lin direct then None
  else
    let sub =
      List.filter_map (fun (n, _, k, _) -> if lineage_equal k my_lin then Some n else None) holders
      |> List.sort_uniq Node_id.compare
    in
    Some (View.make ~id:{ View_id.coord = List.hd sub; seq } ~group:lwg ~members:sub ~preds:[ mine.View.id ])

(* One LWG's ALL-VIEWS contributions are [(node, view, lineage, floor)]
   tuples.  Which views they name, who holds a view and whether its
   holders diverge are answered by walking that list, without building
   a holder list per question. *)

let rec has_view vid = function
  | [] -> false
  | (v : View.t) :: rest -> View_id.equal v.id vid || has_view vid rest
[@@zero_alloc_hot]

(* each contributed view id once, first contribution kept, in reverse
   contribution order *)
let rec distinct_views acc = function
  | [] -> acc
  | (_, (v : View.t), _, _) :: rest -> distinct_views (if has_view v.id acc then acc else v :: acc) rest

let rec holds node vid = function
  | [] -> false
  | (n, (v : View.t), _, _) :: rest -> (Node_id.equal n node && View_id.equal v.id vid) || holds node vid rest
[@@zero_alloc_hot]

let rec agree_on vid k0 = function
  | [] -> true
  | (_, (v : View.t), k, _) :: rest -> ((not (View_id.equal v.id vid)) || lineage_equal k k0) && agree_on vid k0 rest
[@@zero_alloc_hot]

(* two holders of [vid] contributed different lineages *)
let rec divergent vid = function
  | [] -> false
  | (_, (v : View.t), k0, _) :: rest -> if View_id.equal v.id vid then not (agree_on vid k0 rest) else divergent vid rest
[@@zero_alloc_hot]

let holders vid contribs = List.filter (fun (_, (v : View.t), _, _) -> View_id.equal v.id vid) contribs

(* One LWG of a merge round at carrier view [at], entered from [from],
   at a node holding [mine].  [contribs] are the present contributors',
   in descending contributor order.  A merge is needed when they name
   two or more views, one view whose members are not exactly its
   holders, or one whose holders diverge.  The merged view lists
   exactly the contributors, so everyone it names installs it; its id
   is above every contributed seq and floor, its coordinator's
   included, and [finish_lflush] mints only under its own node above
   its floor, so no other mint can produce it. *)
let[@transition] merge_lwg t ~at ~from (l : lstate) (mine : View.t) contribs =
  let views = distinct_views [] contribs in
  let needs_merge =
    match views with
    | [] -> false
    | [ v ] -> (not (List.for_all (fun m -> holds m v.View.id contribs) v.View.members)) || divergent v.View.id contribs
    | _ -> true
  in
  if not needs_merge then begin
    (* One view, held by exactly its members along one lineage: nothing
       diverged, so a latched lineage clears.  Left latched, it reopened
       this round at every carrier install, forever (e.g. a coordinator
       that alone moved its view to a fresh carrier). *)
    if has_view mine.View.id views then l.lineage <- L_continuous
  end
  else if not (holds t.node mine.View.id contribs) then
    (* merged without me: my view is superseded where I was not, so it
       must not mint a shrunk successor (its id could be the merged
       one); the latch has me request rounds until one merges me *)
    l.lineage <- L_cut { at; from; before = l.lineage }
  else begin
    let members = List.fold_left (fun acc (n, _, _, _) -> Node_id.Set.add n acc) Node_id.Set.empty contribs in
    let top =
      List.fold_left (fun acc (_, (v : View.t), _, floor) -> max acc (max v.id.View_id.seq floor)) 0 contribs
    in
    (* when any contributed view has divergent holders, leave room
       below the merged view's seq for their transitional bridges
       (per-node installed seqs must be strictly increasing) *)
    let any_divergent = List.exists (fun (v : View.t) -> divergent v.id contribs) views in
    let id = { View_id.coord = Node_id.Set.min_elt members; seq = (top + if any_divergent then 2 else 1) } in
    let view = View.of_set ~id ~group:l.lwg ~members ~preds:(List.map (fun (v : View.t) -> v.id) views) in
    List.iter (fun (v : View.t) -> Itbl.replace l.ancestors (View_id.code v.id) ()) views;
    t.merges <- t.merges + 1;
    Rt.count t.rt "lwg.merges";
    Rt.trace t.rt (fun () ->
        Plwg_obs.Event.Reconcile_step { node = t.node; step = Plwg_obs.Event.Merge_views; group = Gid.to_string l.lwg });
    (* holders that agree on a lineage need no bridge *)
    (if divergent mine.View.id contribs then
       match transitional_of ~holders:(holders mine.View.id contribs) ~seq:(top + 1) ~lwg:l.lwg t.node mine with
       | Some tview -> install_lview t l tview
       | None -> ());
    install_lview t l view;
    l.status <- L_normal;
    end_lflush t l ~outcome:"superseded";
    ns_set_view t l view;
    drain_outbox t l
  end

(* At the flush synchronisation point every continuing member holds the
   same ALL-VIEWS set, so the merge is computed deterministically and
   locally: union the concurrent views of each LWG (Figure 5 line 115)
   over the present members that answered.  An LWG in [hs.flushing]
   sits the round out.  The contributions are grouped by LWG once per
   round; an LWG this node holds no view of is skipped before any
   analysis, since only a node holding a view installs or clears
   anything. *)
let[@transition] compute_merges t hs hview ~from =
  let by_lwg = Itbl.create () in
  Node_id.Map.iter
    (fun node views ->
      if View.mem node hview then
        List.iter
          (fun (lwg, view, lin, floor) ->
            let key = Gid.code lwg in
            if not (List.mem key hs.flushing) then
              let known = try Itbl.find by_lwg key with Not_found -> [] in
              Itbl.replace by_lwg key ((node, view, lin, floor) :: known))
          views)
    hs.all_views;
  Itbl.iter_sorted
    (fun lwg_code contribs ->
      match Itbl.find t.lstates lwg_code with
      | { view = Some mine; _ } as l -> merge_lwg t ~at:hview.View.id ~from l mine contribs
      | { view = None; _ } -> ()
      | exception Not_found -> ())
    by_lwg

(* ------------------------------------------------------------------ *)
(* Reactions to HWG view changes                                       *)
(* ------------------------------------------------------------------ *)

let[@transition] shrink_check t (l : lstate) hview ~continuous =
  let present = View.members_set hview in
  match (l.status, l.view) with
  | (L_normal | L_stopped), Some view when not (all_present present view.View.members) -> (
      match l.status with
      | L_normal when lineage_is_continuous l.lineage && continuous ->
          (* survivors compute the same shrunken view without messages:
             the HWG flush already synchronised delivery *)
          end_lflush t l ~outcome:"superseded";
          let members = Node_id.Set.inter (View.members_set view) present in
          (match Node_id.Set.min_elt_opt members with
          | None -> ()
          | Some coord ->
              let view' =
                View.of_set
                  ~id:{ View_id.coord; seq = view.View.id.View_id.seq + 1 }
                  ~group:l.lwg ~members ~preds:[ view.View.id ]
              in
              install_lview t l view';
              l.status <- L_normal;
              ns_set_view t l view';
              drain_outbox t l)
      | _ -> (
          (* A node whose history has a gap — crash recovery, a carrier
             view that is not the linear successor of the one it last
             held, a round that merged its view without it — may hold a
             view superseded elsewhere, and a stopped member's
             coordinator may have minted a successor whose L_view is
             still on its way: minting [view.seq + 1] here can duplicate
             an id minted with other members.  A merge round mints above
             every contributed seq and floor instead. *)
          match l.hwg with
          | Some carrier -> request_merge t carrier
          | None -> ()))
  | _, _ -> ()

let abort_stale_flush t (l : lstate) hview =
  match l.flush with
  | Some flush ->
      let present = View.members_set hview in
      if
        (not (Node_id.Set.subset flush.lf_old_members present))
        || not (Node_id.Set.subset flush.lf_new_members present)
      then end_lflush t l ~outcome:"aborted"
  | None -> ()

let[@transition] handle_hwg_view t hgid hview =
  let hs = hstate_of t hgid in
  let prev = hs.hview in
  (* The messageless LWG shrink is sound only along a linear carrier
     history: every present member then came from the same previous
     carrier view, hence holds the same LWG views.  A multi-pred
     install (HWG merge) or a pred that is not the view this node last
     held means divergent lineages may be present. *)
  let continuous =
    match (prev, hview.View.preds) with
    | Some p, [ pred ] -> View_id.equal p.View.id pred
    | _, _ -> false
  in
  (* Am I arriving on the mainline of this install?  My previous view
     must be the unique highest-seq predecessor; otherwise another
     lineage advanced past mine while I was detached, so whatever I
     delivered into my LWG views since they were installed may have
     diverged from their other holders. *)
  let mainline =
    match prev with
    | None -> false
    | Some p ->
        List.exists (View_id.equal p.View.id) hview.View.preds
        && List.for_all
             (fun q -> View_id.equal q p.View.id || q.View_id.seq < p.View.id.View_id.seq)
             hview.View.preds
  in
  hs.hview <- Some hview;
  if not mainline then
    Itbl.iter_sorted
      (fun _ (l : lstate) ->
        match (l.hwg, l.view) with
        | Some h, Some _ when Gid.equal h hgid ->
            (* every discontinuity since this LWG view was installed is
               kept: carrier history shared after a divergence cannot
               restore messages lost during it, and two holders cut at
               the same point may still part at a later one *)
            l.lineage <-
              (match prev with
              | Some p -> L_cut { at = hview.View.id; from = p.View.id; before = l.lineage }
              | None -> L_rejoined t.node)
        | _, _ -> ())
      t.lstates;
  (match prev with
  | _ when List.length hview.View.preds > 1 ->
      (* HWG merge: ALL-VIEWS gathered in disjoint previous views are
         not comparable; restart discovery inside the merged view *)
      multicast_h t hgid (L_gossip { views = my_plain_views_on t hgid })
  | Some p when mainline && not (Node_id.Map.is_empty hs.all_views) ->
      (* Only nodes arriving on the mainline compute the merge: the
         "same ALL-VIEWS at the flush point" determinism argument holds
         among the continuing cohort only.  A detached node's set was
         gathered in a superseded carrier view; its latched lineage
         reopens the round below. *)
      compute_merges t hs hview ~from:p.View.id
  | Some _ | None -> ());
  hs.all_views <- Node_id.Map.empty;
  hs.sent_all_views <- false;
  hs.flushing <- [];
  (* A divergent view whose holders all still advertise the same id is
     invisible to gossip-based discovery; open a merge round explicitly
     so the divergence is resolved at the next flush.  Views the merge
     above already reconciled are back to [L_continuous] and do not
     retrigger. *)
  if
    Itbl.fold_sorted
      (fun _ (l : lstate) acc ->
        acc
        ||
        match (l.hwg, l.view, l.status) with
        | Some h, Some _, (L_normal | L_stopped) -> Gid.equal h hgid && not (lineage_is_continuous l.lineage)
        | _, _, _ -> false)
      t.lstates false
  then request_merge t hgid;
  (* deterministic shrink of LWG views that lost HWG members *)
  Itbl.iter_sorted
    (fun _ (l : lstate) ->
      match l.hwg with
      | Some h when Gid.equal h hgid ->
          abort_stale_flush t l hview;
          shrink_check t l hview ~continuous;
          try_finish_drain t l
      | Some _ | None -> ())
    t.lstates;
  (* migrations and joiners waiting for this HWG *)
  Itbl.iter_sorted
    (fun _ (l : lstate) ->
      match (l.status, l.hwg) with
      | Migrating, Some h when Gid.equal h hgid -> check_migration t l
      | Joining_hwg, Some h when Gid.equal h hgid && View.mem t.node hview ->
          l.status <- Announcing { a_since = Rt.now t.rt };
          multicast_h t hgid (L_join_req { lwg = l.lwg; joiner = t.node })
      | _, _ -> ())
    t.lstates

(* ------------------------------------------------------------------ *)
(* Control-plane message handling                                      *)
(* ------------------------------------------------------------------ *)

let[@transition] handle_join_req t ~carrier ~lwg ~joiner =
  match lstate_of t lwg with
  | Some l -> (
      match (l.status, l.view) with
      | L_normal, Some view when Node_id.equal (lwg_coordinator view) t.node ->
          if View.mem joiner view then () (* already in *)
          else if Option.is_some l.flush || not (Node_id.Set.mem joiner (hview_members t l)) then
            (* defer until the joiner is visible in the carrier's view,
               or the L_VIEW could never reach it *)
            l.pending_joiners <- Node_id.Set.add joiner l.pending_joiners
          else start_lflush t l ~new_members:(Node_id.Set.add joiner (View.members_set view)) ~switch:None
      | _, _ -> ())
  | None -> (
      (* forward pointer: the group moved away from this HWG *)
      let hs = hstate_of t carrier in
      match Imap.find_opt (Gid.code lwg) hs.forwards with
      | Some h2 when (match hs.hview with Some hv -> Node_id.equal (View.coordinator hv) t.node | None -> false) ->
          multicast_h t carrier (L_forward { lwg; to_hwg = h2 })
      | Some _ | None -> ())

let[@transition] handle_leave_req t ~lwg ~leaver =
  match lstate_of t lwg with
  | Some l -> (
      match (l.status, l.view) with
      | L_normal, Some view when Node_id.equal (lwg_coordinator view) t.node && View.mem leaver view ->
          if Option.is_some l.flush then l.pending_leavers <- Node_id.Set.add leaver l.pending_leavers
          else start_lflush t l ~new_members:(Node_id.Set.remove leaver (View.members_set view)) ~switch:None
      | _, _ -> ())
  | None -> ()

let[@transition] proceed_with_mapping t (l : lstate) target =
  l.hwg <- Some target;
  ignore (hstate_of t target);
  if Hwg.is_member t.hwg target then begin
    l.status <- Announcing { a_since = Rt.now t.rt };
    multicast_h t target (L_join_req { lwg = l.lwg; joiner = t.node })
  end
  else begin
    l.status <- Joining_hwg;
    Hwg.join t.hwg target
  end

let handle_forward t ~lwg ~to_hwg =
  match lstate_of t lwg with
  | Some l -> (
      match l.status with
      | Joining_hwg | Announcing _ ->
          if not (Option.equal Gid.equal l.hwg (Some to_hwg)) then proceed_with_mapping t l to_hwg
      | Resolving _ | L_normal | L_stopped | Draining _ | Migrating -> ())
  | None -> ()

let handle_gossip t ~carrier ~views =
  List.iter
    (fun (lwg, (gossiped : View.t)) ->
      match lstate_of t lwg with
      | Some l -> (
          match (l.view, l.hwg) with
          | Some mine, Some h
            when Gid.equal h carrier
                 && (not (View_id.equal mine.View.id gossiped.View.id))
                 && (not (Itbl.mem l.ancestors (View_id.code gossiped.View.id)))
                 && not (List.exists (View_id.equal gossiped.View.id) mine.View.preds) ->
              request_merge t carrier
          | _, _ -> ())
      | None ->
          (* a view that claims us as a member of a group we abandoned:
             ask to be flushed out (heals phantom memberships) *)
          if View.mem t.node gossiped then multicast_h t carrier (L_leave_req { lwg; leaver = t.node }))
    views

(* ------------------------------------------------------------------ *)
(* Mapping resolution (joins) and initial mapping policy               *)
(* ------------------------------------------------------------------ *)

let best_entry entries =
  match entries with
  | [] -> None
  | first :: rest ->
      Some (List.fold_left (fun best e -> if Gid.compare e.Db.hwg best.Db.hwg > 0 then e else best) first rest)

(* Optimistic initial mapping (Section 3.2): assume the new LWG will
   resemble an existing one, i.e. reuse a HWG this process already
   belongs to; otherwise mint a fresh HWG. *)
let initial_hwg t =
  let mine =
    Itbl.fold_sorted
      (fun _ hs acc -> match hs.hview with Some hv when View.mem t.node hv -> hs.hgid :: acc | _ -> acc)
      t.hstates []
  in
  match List.sort Gid.compare mine with
  | [] -> Hwg.fresh_gid t.hwg
  | sorted -> List.nth sorted (List.length sorted - 1)

let[@transition] resolve_mapping t (l : lstate) =
  match t.mode with
  | Static hwg -> proceed_with_mapping t l hwg
  | Direct -> assert false
  | Dynamic -> (
      match t.ns with
      | None -> assert false
      | Some ns ->
          Client.read ns l.lwg ~k:(fun entries ->
              match l.status with
              | Resolving _ -> (
                  match best_entry entries with
                  | Some e -> proceed_with_mapping t l e.Db.hwg
                  | None ->
                      let candidate = initial_hwg t in
                      let provisional = { View_id.coord = t.node; seq = 0 } in
                      let entry =
                        {
                          Db.lwg = l.lwg;
                          lwg_view = provisional;
                          members = [ t.node ];
                          hwg = candidate;
                          hwg_view = None;
                          preds = [];
                        }
                      in
                      Client.test_and_set ns entry ~k:(fun entries ->
                          match l.status with
                          | Resolving _ -> (
                              match best_entry entries with
                              | Some winner ->
                                  if View_id.equal winner.Db.lwg_view provisional then
                                    l.provisional <- Some provisional;
                                  proceed_with_mapping t l winner.Db.hwg
                              | None -> proceed_with_mapping t l candidate)
                          | _ -> ()))
              | _ -> ()))

(* Reconciliation steps 1-2 (Sections 6.1, 6.2): on a MULTIPLE-MAPPINGS
   callback, the coordinator of each concurrent view switches to the
   HWG with the highest group identifier. *)
let handle_multiple_mappings t lwg entries =
  match lstate_of t lwg with
  | Some l -> (
      match (l.status, l.view, best_entry entries) with
      | L_normal, Some view, Some target
        when Node_id.equal (lwg_coordinator view) t.node && Option.is_none l.flush && not (Option.equal Gid.equal l.hwg (Some target.Db.hwg)) ->
          Rt.count t.rt "lwg.mapping_reconciliations";
          Rt.trace t.rt (fun () ->
              Plwg_obs.Event.Reconcile_step
                { node = t.node; step = Plwg_obs.Event.Mapping_reconciliation; group = Gid.to_string lwg });
          start_switch t l target.Db.hwg
      | _, _, _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Policies (Figure 1)                                                 *)
(* ------------------------------------------------------------------ *)

let lwgs_mapped_on t hgid =
  Itbl.fold_sorted (fun _ (l : lstate) acc -> if Option.equal Gid.equal l.hwg (Some hgid) then acc + 1 else acc) t.lstates 0

let run_policies_now t =
  match t.mode with
  | Direct | Static _ -> ()
  | Dynamic ->
      let candidates =
        Itbl.fold_sorted
          (fun _ hs acc ->
            match hs.hview with
            | Some hv when View.mem t.node hv && Hwg.is_member t.hwg hs.hgid ->
                (hs.hgid, View.members_set hv) :: acc
            | _ -> acc)
          t.hstates []
      in
      (* interference rule, per LWG I coordinate *)
      Itbl.iter_sorted
        (fun _ (l : lstate) ->
          match (l.status, l.view, l.hwg) with
          | L_normal, Some view, Some hgid when Node_id.equal (lwg_coordinator view) t.node && Option.is_none l.flush -> (
              match List.find_map (fun (g, ms) -> if Gid.equal g hgid then Some ms else None) candidates with
              | Some hwg_members -> (
                  let others = List.filter (fun (g, _) -> not (Gid.equal g hgid)) candidates in
                  match
                    Policy.interference_decision t.config.params ~lwg_members:(View.members_set view)
                      ~hwg:(hgid, hwg_members) ~candidates:others
                  with
                  | `Stay -> ()
                  | `Switch_to target ->
                      Rt.count t.rt "policy.interference";
                      Rt.trace t.rt (fun () ->
                          Plwg_obs.Event.Policy_decision
                            {
                              node = t.node;
                              rule = "interference";
                              subject = Gid.to_string l.lwg;
                              decision = "switch-to " ^ Gid.to_string target;
                            });
                      start_switch t l target
                  | `Create_new ->
                      let target = Hwg.fresh_gid t.hwg in
                      Rt.count t.rt "policy.interference";
                      Rt.trace t.rt (fun () ->
                          Plwg_obs.Event.Policy_decision
                            {
                              node = t.node;
                              rule = "interference";
                              subject = Gid.to_string l.lwg;
                              decision = "create-new " ^ Gid.to_string target;
                            });
                      start_switch t l target)
              | None -> ())
          | _, _, _ -> ())
        t.lstates;
      (* share rule, per pair of HWGs I can observe *)
      let rec pairs = function
        | [] -> []
        | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
      in
      List.iter
        (fun ((g1, m1), (g2, m2)) ->
          match Policy.share_decision t.config.params (g1, m1) (g2, m2) with
          | `Keep -> ()
          | `Collapse_into winner ->
              let loser = if Gid.equal winner g1 then g2 else g1 in
              Rt.count t.rt "policy.share";
              Rt.trace t.rt (fun () ->
                  Plwg_obs.Event.Policy_decision
                    {
                      node = t.node;
                      rule = "share";
                      subject = Gid.to_string loser;
                      decision = "collapse-into " ^ Gid.to_string winner;
                    });
              Itbl.iter_sorted
                (fun _ (l : lstate) ->
                  match (l.status, l.view, l.hwg) with
                  | L_normal, Some view, Some h
                    when Gid.equal h loser && Node_id.equal (lwg_coordinator view) t.node && Option.is_none l.flush ->
                      start_switch t l winner
                  | _, _, _ -> ())
                t.lstates)
        (pairs candidates);
      (* shrink rule, per HWG *)
      let now = Rt.now t.rt in
      let to_leave = ref [] in
      Itbl.iter_sorted
        (fun _ hs ->
          let hgid = hs.hgid in
          if Hwg.is_member t.hwg hgid then
            match Policy.shrink_decision ~member_of_hwg:true ~lwgs_mapped_here:(lwgs_mapped_on t hgid) with
            | `Stay -> hs.empty_since <- None
            | `Leave -> (
                match hs.empty_since with
                | None -> hs.empty_since <- Some now
                | Some since ->
                    if Time.diff now since > shrink_grace then to_leave := hgid :: !to_leave))
        t.hstates;
      List.iter
        (fun hgid ->
          Rt.count t.rt "policy.shrink";
          Rt.trace t.rt (fun () ->
              Plwg_obs.Event.Policy_decision
                { node = t.node; rule = "shrink"; subject = Gid.to_string hgid; decision = "leave-hwg" });
          Hwg.leave t.hwg hgid;
          Itbl.remove t.hstates (Gid.code hgid))
        !to_leave

(* ------------------------------------------------------------------ *)
(* Periodic machinery                                                  *)
(* ------------------------------------------------------------------ *)

let state_grace = Time.sec 2

let[@transition] tick t =
  let now = Rt.now t.rt in
  Itbl.iter_sorted
    (fun _ (l : lstate) ->
      (* best-effort state transfer: don't hold deliveries forever if the
         coordinator died before shipping the state *)
      (match l.awaiting_state with
      | Some since when Time.diff now since > state_grace ->
          l.awaiting_state <- None;
          drain_pend_cur t l
      | Some _ | None -> ());
      match l.status with
      | Resolving r ->
          if Time.diff now r.r_since > Time.sec 2 then begin
            r.r_since <- now;
            resolve_mapping t l
          end
      | Joining_hwg -> (
          match l.hwg with
          | Some h when Hwg.is_member t.hwg h ->
              l.status <- Announcing { a_since = now };
              multicast_h t h (L_join_req { lwg = l.lwg; joiner = t.node })
          | Some _ | None -> ())
      | Announcing a -> (
          match l.hwg with
          | Some h when not (Hwg.is_member t.hwg h) ->
              (* the shrink rule (or a failure) took the carrier from
                 under us: re-acquire it and restart the announce *)
              l.status <- Joining_hwg;
              Hwg.join t.hwg h
          | Some h ->
              if Time.diff now a.a_since > join_grace then begin
                (* nobody answered: I am the first member.  The sequence
                   floor keeps view ids unique across leave/rejoin
                   incarnations of this process. *)
                let view =
                  View.make
                    ~id:{ View_id.coord = t.node; seq = lseq_floor_of t l.lwg + 1 }
                    ~group:l.lwg ~members:[ t.node ] ~preds:[]
                in
                install_lview t l view;
                l.status <- L_normal;
                ns_set_view t l view;
                drain_outbox t l
              end
              else multicast_h t h (L_join_req { lwg = l.lwg; joiner = t.node })
          | None -> ())
      | L_normal when l.leaving -> (
          match (l.view, l.hwg) with
          | Some view, Some h ->
              if List.equal Node_id.equal view.View.members [ t.node ] then remove_lstate t l ~installed:true
              else if Node_id.equal (lwg_coordinator view) t.node && Option.is_none l.flush then
                start_lflush t l ~new_members:(Node_id.Set.remove t.node (View.members_set view)) ~switch:None
              else multicast_h t h (L_leave_req { lwg = l.lwg; leaver = t.node })
          | _, _ -> ())
      | L_normal -> (
          (* coordinator: process queued joins/leaves *)
          match l.view with
          | Some view
            when Node_id.equal (lwg_coordinator view) t.node && Option.is_none l.flush
                 && ((not (Node_id.Set.is_empty l.pending_joiners))
                    || not (Node_id.Set.is_empty l.pending_leavers)) ->
              let present = hview_members t l in
              let joiners = Node_id.Set.inter l.pending_joiners present in
              let base = View.members_set view in
              let next = Node_id.Set.diff (Node_id.Set.union base joiners) l.pending_leavers in
              if not (Node_id.Set.equal next base) then start_lflush t l ~new_members:next ~switch:None
              else begin
                l.pending_joiners <- Node_id.Set.empty;
                l.pending_leavers <- Node_id.Set.empty
              end
          | Some _ | None -> ())
      | L_stopped | Draining _ | Migrating -> ())
    t.lstates

let gossip t =
  Itbl.iter_sorted
    (fun _ hs ->
      if Hwg.is_member t.hwg hs.hgid then
        match my_plain_views_on t hs.hgid with
        | [] -> ()
        | views -> multicast_h t hs.hgid (L_gossip { views }))
    t.hstates

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let join ?(ordering = Fifo) t lwg =
  match t.mode with
  | Direct -> Hwg.join ~ordering t.hwg lwg
  | Static _ | Dynamic -> (
      match lstate_of t lwg with
      | Some _ -> ()
      | None ->
          let l =
            {
              lwg;
              ordering = (match ordering with Total -> invalid_arg "Lwg.join: Total ordering is only available at the HWG level" | o -> o);
              hwg = None;
              status = Resolving { r_since = Rt.now t.rt };
              view = None;
              ancestors = Itbl.create ();
              provisional = None;
              next_seq = 0;
              total_sent = 0;
              delivered = [||];
              pend_cur = [];
              pend_new = [];
              outbox = [];
              epoch = 0;
              flush = None;
              leaving = false;
              awaiting_state = None;
              pending_joiners = Node_id.Set.empty;
              pending_leavers = Node_id.Set.empty;
              lineage = L_continuous;
            }
          in
          Itbl.replace t.lstates (Gid.code lwg) l;
          resolve_mapping t l)

let[@transition] leave t lwg =
  match t.mode with
  | Direct -> Hwg.leave t.hwg lwg
  | Static _ | Dynamic -> (
      match lstate_of t lwg with
      | None -> ()
      | Some l -> (
          match (l.status, l.view) with
          | (Resolving _ | Joining_hwg | Announcing _), _ -> remove_lstate t l ~installed:false
          | _, Some view when List.equal Node_id.equal view.View.members [ t.node ] -> remove_lstate t l ~installed:true
          | _, _ ->
              l.leaving <- true;
              (match (l.view, l.hwg) with
              | Some view, Some h ->
                  if Node_id.equal (lwg_coordinator view) t.node then
                    start_lflush t l ~new_members:(Node_id.Set.remove t.node (View.members_set view)) ~switch:None
                  else multicast_h t h (L_leave_req { lwg; leaver = t.node })
              | _, _ -> ())))

let send t lwg body =
  match t.mode with
  | Direct -> Hwg.send t.hwg lwg body
  | Static _ | Dynamic -> (
      match lstate_exn t lwg with
      | exception Not_found -> invalid_arg "Lwg.send: not a member of the group"
      | l -> send_in t l body)

let view_of t lwg =
  match t.mode with
  | Direct -> Hwg.view_of t.hwg lwg
  | Static _ | Dynamic -> ( match lstate_of t lwg with Some l -> l.view | None -> None)

let mapping_of t lwg =
  match t.mode with
  | Direct -> Some lwg
  | Static _ | Dynamic -> ( match lstate_of t lwg with Some l -> l.hwg | None -> None)

let enable_state_transfer t callbacks =
  match t.mode with
  | Direct -> invalid_arg "Lwg.enable_state_transfer: not available in Direct mode"
  | Static _ | Dynamic -> t.state_callbacks <- Some callbacks

let request_switch t lwg target =
  match (t.mode, lstate_of t lwg) with
  | (Static _ | Dynamic), Some l -> start_switch t l target
  | _, _ -> ()

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

(* State-transfer install: clears the awaited-state latch and resumes
   delivery, so it is a designated lstate transition. *)
let[@transition] install_transferred_state t ~src (l : lstate) callbacks ~state =
  if Option.is_some l.awaiting_state then begin
    l.awaiting_state <- None;
    callbacks.install_state l.lwg ~src state;
    drain_pend_cur t l
  end

let handle_hwg_data t ~carrier ~src payload =
  match payload with
  | L_data { lwg; lview; seq; local; vc; body } -> handle_ldata t ~carrier ~src ~lwg ~lview ~seq ~local ~vc ~body
  | L_join_req { lwg; joiner } -> handle_join_req t ~carrier ~lwg ~joiner
  | L_leave_req { lwg; leaver } -> handle_leave_req t ~lwg ~leaver
  | L_stop { lwg; epoch; lview } -> (
      match lstate_exn t lwg with l -> handle_lstop t l ~epoch ~lview | exception Not_found -> ())
  | L_stop_ok { lwg; epoch; from; sent } -> (
      note_lflush t carrier lwg;
      match lstate_exn t lwg with l -> handle_lstop_ok t l ~epoch ~from ~sent | exception Not_found -> ())
  | L_view { lwg; epoch; view; cut; switch_to } ->
      note_lflush t carrier lwg;
      handle_lview t ~carrier ~lwg ~epoch ~view ~cut ~switch_to
  | L_forward { lwg; to_hwg } -> handle_forward t ~lwg ~to_hwg
  | L_gossip { views } -> handle_gossip t ~carrier ~views
  | L_merge_views -> handle_merge_views t ~carrier
  | L_all_views { from; views } -> handle_all_views t ~carrier ~from ~views
  | L_state { lwg; lview; recipients; state } -> (
      match (lstate_exn t lwg, t.state_callbacks) with
      | l, Some callbacks when List.mem t.node recipients -> (
          match l.view with
          | Some view when View_id.equal view.View.id lview -> install_transferred_state t ~src l callbacks ~state
          | Some _ | None -> ())
      | _, _ -> ()
      | exception Not_found -> ())
  | _ -> ()

(* Crash recovery severs every held view's carrier lineage (see
   [shrink_check]): a frozen local view must not mint successor ids. *)
let[@transition] mark_lineage_rejoined t node =
  Itbl.iter_sorted
    (fun _ (l : lstate) -> if Option.is_some l.view then l.lineage <- L_rejoined node)
    t.lstates

let create ?(config = default_config) ~mode ~transport ~detector ?ns callbacks node =
  (match (mode, ns) with
  | Dynamic, None -> invalid_arg "Lwg.create: Dynamic mode requires a naming-service client"
  | _, _ -> ());
  let rt = Transport.runtime transport in
  (* The callbacks match on [t_ref] in place: a [with_t (fun t -> ...)]
     helper would allocate its closure on every delivery. *)
  let t_ref = ref None in
  let hwg_callbacks =
    match mode with
    | Direct ->
        {
          Hwg.on_view = (fun group view -> match !t_ref with Some t -> t.callbacks.on_view group view | None -> ());
          Hwg.on_data =
            (fun group ~view_id:_ ~src payload ->
              match !t_ref with Some t -> t.callbacks.on_data group ~src payload | None -> ());
          Hwg.on_stop = None;
        }
    | Static _ | Dynamic ->
        {
          Hwg.on_view = (fun group view -> match !t_ref with Some t -> handle_hwg_view t group view | None -> ());
          Hwg.on_data =
            (fun group ~view_id:_ ~src payload ->
              match !t_ref with Some t -> handle_hwg_data t ~carrier:group ~src payload | None -> ());
          Hwg.on_stop = None;
        }
  in
  let hwg = Hwg.create ~transport ~detector hwg_callbacks node in
  let t =
    {
      node;
      mode;
      config;
      rt;
      tracing = Rt.tracing rt;
      callbacks;
      ns;
      hwg;
      lstates = Itbl.create ();
      hstates = Itbl.create ();
      lseq_floor = Itbl.create ();
      state_callbacks = None;
      lwg_gid_counter = 0;
      switches = 0;
      merges = 0;
    }
  in
  t_ref := Some t;
  (match (mode, ns) with
  | Dynamic, Some client -> Client.on_multiple_mappings client (fun lwg entries -> handle_multiple_mappings t lwg entries)
  | _, _ -> ());
  (match mode with
  | Direct -> ()
  | Static _ | Dynamic ->
      (* While this node was crashed the rest of each group kept
         changing views; the frozen local views must not be used to
         mint successor ids (see [shrink_check]). *)
      Rt.on_recover rt node (fun () -> mark_lineage_rejoined t node);
      let jitter period salt = Time.us (((node * 7919) + salt) mod period) in
      Rt.every rt node ~first:(jitter (Time.ms 150) 13) ~period:(Time.ms 150) (fun () -> tick t);
      Rt.every rt node ~first:(jitter gossip_period 101) ~period:gossip_period (fun () -> gossip t);
      (* the first policy run waits one full period: evaluating the
         Figure 1 rules while groups are still forming causes exactly
         the switch cascades the paper's slow period is meant to avoid *)
      Rt.every rt node
        ~first:(config.policy_period + jitter config.policy_period 977)
        ~period:config.policy_period
        (fun () -> run_policies_now t));
  t
