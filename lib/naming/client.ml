open Plwg_sim
module Rt = Plwg_runtime.Rt
open Plwg_vsync.Types
open Protocol
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector

(* timeout for the first attempt; doubles per retry *)
let request_timeout = Time.ms 800

(* attempts before the request gives up *)
let max_attempts = 6

(* upper bound on the per-attempt timeout (before jitter) *)
let backoff_cap = Time.sec 5

type reply = Entries of (Db.entry list -> unit) | Ack of (bool -> unit)

type pending = {
  make : int -> Payload.t; (* request payload for a given req id *)
  reply : reply;
  started : Time.t;
  mutable attempt : int;
  mutable last_server : Node_id.t option;
  mutable timer : Rt.cancel;
}

type t = {
  node : Node_id.t;
  rt : Rt.t;
  endpoint : Transport.endpoint;
  detector : Detector.t;
  rng : Plwg_util.Rng.t;
  servers : Node_id.t list;
  mutable next_req : int;
  pending : (int, pending) Hashtbl.t;
  mutable mm_handlers : (Gid.t -> Db.entry list -> unit) list;
}

(* Prefer reachable replicas, and never re-hit the server that just
   timed out when another candidate exists: a single slow or silently
   partitioned replica must not absorb the whole retry budget. *)
let pick_server t ~attempt ~last =
  let reachable = Detector.reachable_set t.detector in
  let preferred = List.filter (fun s -> Node_id.Set.mem s reachable) t.servers in
  let pool = if preferred = [] then t.servers else preferred in
  let pool =
    match last with Some prev when List.length pool > 1 -> List.filter (fun s -> s <> prev) pool | _ -> pool
  in
  match pool with [] -> None | _ -> Some (List.nth pool (attempt mod List.length pool))

(* Bounded exponential backoff with seeded jitter: attempt [k] waits
   min(request_timeout * 2^k, backoff_cap) plus up to 25% jitter, so a
   herd of clients orphaned by the same partition does not retry in
   lock-step. *)
let timeout_for t p =
  let shift = min p.attempt 16 in
  let base = min (request_timeout * (1 lsl shift)) backoff_cap in
  let jitter = if base >= 4 then Plwg_util.Rng.int t.rng (base / 4) else 0 in
  base + jitter

(* The request is unanswerable: tell the caller so.  Reconciliation
   paths block on these continuations, so dropping the request silently
   (as this code once did) left them waiting forever. *)
let give_up t req p =
  Hashtbl.remove t.pending req;
  Rt.count t.rt "ns.give_ups";
  Rt.trace t.rt (fun () -> Plwg_obs.Event.Ns_give_up { node = t.node; req; attempts = p.attempt });
  match p.reply with Entries k -> k [] | Ack k -> k false

let rec transmit t req p =
  match pick_server t ~attempt:p.attempt ~last:p.last_server with
  | None -> give_up t req p (* no servers configured *)
  | Some server ->
      p.last_server <- Some server;
      Rt.count t.rt (if p.attempt = 0 then "ns.requests" else "ns.retries");
      Rt.trace t.rt (fun () ->
          let op = Plwg_obs.Event.kind_prefix (Payload.to_string (p.make req)) in
          if p.attempt = 0 then Plwg_obs.Event.Ns_request { node = t.node; req; op; server }
          else Plwg_obs.Event.Ns_retry { node = t.node; req; attempt = p.attempt; server });
      Transport.send t.endpoint ~dst:server (p.make req);
      p.timer <-
        Rt.after_node t.rt t.node (timeout_for t p) (fun () ->
            if Hashtbl.mem t.pending req then begin
              p.attempt <- p.attempt + 1;
              if p.attempt >= max_attempts then give_up t req p else transmit t req p
            end)

let request t make reply =
  let req = t.next_req in
  t.next_req <- req + 1;
  let p = { make; reply; started = Rt.now t.rt; attempt = 0; last_server = None; timer = (fun () -> ()) } in
  Hashtbl.replace t.pending req p;
  transmit t req p

let set t entry ~k = request t (fun req -> Ns_set { req; from = t.node; entry }) (Ack k)

let read t lwg ~k = request t (fun req -> Ns_read { req; from = t.node; lwg }) (Entries k)

let test_and_set t entry ~k = request t (fun req -> Ns_testset { req; from = t.node; entry }) (Entries k)

(* Handlers are stored newest-first; [handle] reverses, preserving
   registration order without a quadratic append. *)
let on_multiple_mappings t handler = t.mm_handlers <- handler :: t.mm_handlers

let settle t req k =
  match Hashtbl.find_opt t.pending req with
  | Some p ->
      p.timer ();
      Hashtbl.remove t.pending req;
      let rtt = Time.diff (Rt.now t.rt) p.started in
      Rt.trace t.rt (fun () -> Plwg_obs.Event.Ns_reply { node = t.node; req; rtt_us = rtt });
      Rt.observe t.rt "ns.rtt_us" (float_of_int rtt);
      k p
  | None -> ()

let handle t payload =
  match payload with
  | Ns_reply { req; entries } ->
      settle t req (fun p -> match p.reply with Entries k -> k entries | Ack k -> k true)
  | Ns_ack { req } -> settle t req (fun p -> match p.reply with Ack k -> k true | Entries k -> k [])
  | Ns_multiple_mappings { lwg; entries } ->
      Rt.count t.rt "ns.multiple_mappings";
      Rt.trace t.rt (fun () ->
          Plwg_obs.Event.Reconcile_step
            { node = t.node; step = Plwg_obs.Event.Global_discovery; group = Gid.to_string lwg });
      List.iter (fun handler -> handler lwg entries) (List.rev t.mm_handlers)
  (* server-bound requests: a client endpoint can legitimately see them
     only if it shares a node with a server; never ours to answer *)
  | Ns_set _ | Ns_read _ | Ns_testset _ | Ns_gossip _ -> ()
  | _ -> ()

let create ~transport ~detector ~servers node =
  let rt = Transport.runtime transport in
  let endpoint = Transport.endpoint transport node in
  let t =
    {
      node;
      rt;
      endpoint;
      detector;
      rng = Plwg_util.Rng.split (Rt.rng_node rt node);
      servers;
      next_req = 0;
      pending = Hashtbl.create 16;
      mm_handlers = [];
    }
  in
  Transport.on_receive endpoint (fun ~src:_ payload -> handle t payload);
  (* A retry timer that fired while this node was crashed was skipped,
     leaving its request pending with no timer.  On recovery, charge the
     lost window as a timed-out attempt and resume the retry schedule. *)
  Rt.on_recover rt node (fun () ->
      let stuck = Plwg_util.Tbl.bindings_sorted ~cmp:Int.compare t.pending in
      List.iter
        (fun (req, p) ->
          if Hashtbl.mem t.pending req then begin
            p.timer ();
            p.attempt <- p.attempt + 1;
            if p.attempt >= max_attempts then give_up t req p else transmit t req p
          end)
        stuck);
  t
