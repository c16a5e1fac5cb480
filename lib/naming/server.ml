open Plwg_sim
module Rt = Plwg_runtime.Rt
open Protocol
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector

type config = { gossip_period : Time.span }

let default_config = { gossip_period = Time.ms 400 }

type t = {
  node : Node_id.t;
  rt : Rt.t;
  endpoint : Transport.endpoint;
  detector : Detector.t;
  config : config;
  peers : Node_id.t list;
  db : Db.t;
}

let node t = t.node
let db t = t.db

(* Callback path of Section 6.1: when the database shows concurrent
   views of one LWG mapped onto different HWGs, tell the members so the
   coordinators can reconcile.  Repeated while the conflict persists —
   receivers treat the notification as idempotent. *)
let notify_conflicts t =
  List.iter
    (fun lwg ->
      Rt.count t.rt "ns.conflicts_notified";
      Rt.trace t.rt (fun () ->
          Plwg_obs.Event.Ns_conflict { server = t.node; lwg = Plwg_vsync.Types.Gid.to_string lwg });
      let entries = Db.read t.db lwg in
      let targets =
        List.sort_uniq Node_id.compare (List.concat_map (fun e -> e.Db.members) entries)
      in
      List.iter (fun dst -> Transport.send t.endpoint ~dst (Ns_multiple_mappings { lwg; entries })) targets)
    (Db.conflicts t.db)

let gossip t =
  Rt.count t.rt "ns.gossip_rounds";
  let reachable = Detector.reachable_set t.detector in
  List.iter
    (fun peer ->
      if Node_id.Set.mem peer reachable then
        (* anti-entropy pushes are full snapshots: best-effort datagrams,
           the next round repairs any loss *)
        Transport.send_raw t.endpoint ~dst:peer (Ns_gossip { from = t.node; db = Db.snapshot t.db }))
    t.peers

let handle t ~src payload =
  match payload with
  | Ns_set { req; from; entry } ->
      Db.set t.db entry;
      Transport.send t.endpoint ~dst:from (Ns_ack { req });
      notify_conflicts t
  | Ns_read { req; from; lwg } ->
      Transport.send t.endpoint ~dst:from (Ns_reply { req; entries = Db.read t.db lwg })
  | Ns_testset { req; from; entry } ->
      let entries = Db.test_and_set t.db entry in
      Transport.send t.endpoint ~dst:from (Ns_reply { req; entries });
      notify_conflicts t
  | Ns_gossip { from = _; db } ->
      ignore src;
      if Db.merge t.db db then notify_conflicts t
  (* client-bound replies: only seen here when a client shares the node;
     the wildcard below is for foreign (non-naming) payloads *)
  | Ns_reply _ | Ns_ack _ | Ns_multiple_mappings _ -> ()
  | _ -> ()

let create ?(config = default_config) ~transport ~detector ~peers node =
  let rt = Transport.runtime transport in
  let endpoint = Transport.endpoint transport node in
  let t = { node; rt; endpoint; detector; config; peers; db = Db.create () } in
  Transport.on_receive endpoint (fun ~src payload -> handle t ~src payload);
  Rt.every rt node ~first:(Time.us (node * 211)) ~period:config.gossip_period (fun () ->
      gossip t;
      notify_conflicts t);
  t
