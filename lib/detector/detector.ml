open Plwg_sim
module Rt = Plwg_runtime.Rt

type Payload.t += Heartbeat of { from : Node_id.t; ask : bool }

let () =
  Payload.register_printer (function
    | Heartbeat { from; ask } ->
        Some (Printf.sprintf "heartbeat(%s%s)" (Node_id.to_string from) (if ask then ",ask" else ""))
    | _ -> None)

type status = Reachable | Unreachable

(* detector round: a watched peer sent nothing for this long gets a heartbeat *)
let period = Time.ms 100

(* silence before a watched peer is suspected; a few periods *)
let timeout = Time.ms 350

(* how long one renewal keeps a peer watched: several rounds of the
   loops that renew it (HWG tick 150 ms, naming gossip 400 ms) *)
let lease = Time.sec 1

(* an unwatched peer sent nothing for this long gets a probe *)
let probe_period = Time.ms 400

(* Liveness evidence is the transport's: any arrival from a peer
   proves it alive ([Transport.heard_at]), so a peer that traffic
   already reaches is sent no heartbeat ([Transport.spoke_at]).
   Monitoring is scoped by interest: a peer is watched while a consumer
   renewed its lease within [lease].  Watched peers get a beat each
   round they were sent nothing and are suspected after [timeout] of
   silence; the beat asks for an answer, so a peer that does not watch
   this node back still shows it signs of life.  Every other peer gets
   a probe every [probe_period], which lets two nodes no group connects
   yet find each other, and is never suspected: its silence means
   nothing to anyone.  [reach] is a flat bool array so [status] is a
   load and a branch. *)
type t = {
  node : Node_id.t;
  rt : Rt.t;
  endpoint : Plwg_transport.Transport.endpoint;
  ask : Payload.t; (* heartbeat to a watched peer, built once *)
  quiet : Payload.t; (* probe or answer: asks for nothing *)
  reach : bool array; (* per peer; self stays false *)
  lease_end : Time.t array; (* per peer: watched while now is before this *)
  watched_from : Time.t array; (* per peer: start of its current lease *)
  mutable subscribers : (Node_id.t -> status -> unit) list;
}

let notify t peer status =
  Rt.count t.rt "detector.transitions";
  Rt.trace t.rt (fun () ->
      Plwg_obs.Event.Peer_status { node = t.node; peer; reachable = status = Reachable });
  (* Subscribers are stored newest-first; reverse so they fire in
     registration order. *)
  List.iter (fun subscriber -> subscriber peer status) (List.rev t.subscribers)

let mark_reachable t peer =
  if (not (Node_id.equal peer t.node)) && not t.reach.(peer) then begin
    t.reach.(peer) <- true;
    notify t peer Reachable
  end

let mark_unreachable t peer =
  if t.reach.(peer) && not (Node_id.equal peer t.node) then begin
    t.reach.(peer) <- false;
    notify t peer Unreachable
  end

let watch t peer =
  let now = Rt.now t.rt in
  if t.lease_end.(peer) <= now then t.watched_from.(peer) <- now;
  t.lease_end.(peer) <- Time.add now lease
[@@zero_alloc_hot]

(* A watched peer is suspected once it was silent for [timeout] and
   watched for as long: a fresh lease first gives the peer a chance to
   answer. *)
let sweep t =
  let now = Rt.now t.rt in
  for peer = 0 to Array.length t.reach - 1 do
    let heard = Plwg_transport.Transport.heard_at t.endpoint peer in
    if heard >= 0 && Time.diff now heard <= timeout then mark_reachable t peer
    else if now < t.lease_end.(peer) && Time.diff now t.watched_from.(peer) > timeout then mark_unreachable t peer
  done
[@@zero_alloc_hot]

(* Beat only to peers this node sent nothing for a whole period: the
   longest silence a live watched peer shows is then about two periods,
   still under [timeout]. *)
let tick t =
  let now = Rt.now t.rt in
  for peer = 0 to Array.length t.reach - 1 do
    if not (Node_id.equal peer t.node) then begin
      let spoke = Plwg_transport.Transport.spoke_at t.endpoint peer in
      let silent = if spoke < 0 then max_int else Time.diff now spoke in
      if now < t.lease_end.(peer) then begin
        if silent >= period then Plwg_transport.Transport.send_raw t.endpoint ~dst:peer t.ask
      end
      else if silent >= probe_period then Plwg_transport.Transport.send_raw t.endpoint ~dst:peer t.quiet
    end
  done;
  sweep t

let create transport node =
  let rt = Plwg_transport.Transport.runtime transport in
  let n_nodes = Rt.n_nodes rt in
  let endpoint = Plwg_transport.Transport.endpoint transport node in
  let t =
    {
      node;
      rt;
      endpoint;
      ask = Heartbeat { from = node; ask = true };
      quiet = Heartbeat { from = node; ask = false };
      reach = Array.make n_nodes false;
      lease_end = Array.make n_nodes Time.zero;
      watched_from = Array.make n_nodes Time.zero;
      subscribers = [];
    }
  in
  (* Any delivery from a suspected peer ends the suspicion at once: a
     data message across a healed link must not wait for the sweep.  An
     asking beat from a peer this node has left silent is answered. *)
  Plwg_transport.Transport.on_receive endpoint (fun ~src payload ->
      if not t.reach.(src) then mark_reachable t src;
      match payload with
      | Heartbeat { ask = true; _ } ->
          let spoke = Plwg_transport.Transport.spoke_at endpoint src in
          if spoke < 0 || Time.diff (Rt.now rt) spoke >= period then
            Plwg_transport.Transport.send_raw endpoint ~dst:src t.quiet
      | _ -> ());
  (* stagger first beats so all nodes do not fire on the same instant *)
  Rt.every rt node ~first:(Time.us (node * 137)) ~period (fun () -> tick t);
  t

let status t peer = if Node_id.equal peer t.node || t.reach.(peer) then Reachable else Unreachable

let on_change t subscriber = t.subscribers <- subscriber :: t.subscribers
