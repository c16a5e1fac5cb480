open Plwg_sim
module Rt = Plwg_runtime.Rt

type Payload.t += Heartbeat of { from : Node_id.t }

let () =
  Payload.register_printer (function
    | Heartbeat { from } -> Some (Printf.sprintf "heartbeat(%s)" (Node_id.to_string from))
    | _ -> None)

type status = Reachable | Unreachable

(* detector round: a peer sent nothing for this long gets a heartbeat *)
let period = Time.ms 100

(* silence before suspicion; a few periods *)
let timeout = Time.ms 350

(* Liveness evidence is the transport's: any arrival from a peer
   proves it alive ([Transport.heard_at]), so a peer that traffic
   already reaches is sent no heartbeat ([Transport.spoke_at]).
   Reachability is tracked twice: [reach] (flat bool array) answers the
   per-delivery probe and [status] in O(1) with no tree walk, while
   [with_self] keeps the [Node_id.Set.t] clients consume.  The set is
   updated only on actual transitions (rare), so the hot path is a
   load and a branch. *)
type t = {
  node : Node_id.t;
  rt : Rt.t;
  endpoint : Plwg_transport.Transport.endpoint;
  beat : Payload.t; (* this node's heartbeat, built once *)
  reach : bool array; (* per peer; self stays false *)
  mutable with_self : Node_id.Set.t; (* reachable peers + self *)
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
    t.with_self <- Node_id.Set.add peer t.with_self;
    notify t peer Reachable
  end

let mark_unreachable t peer =
  if t.reach.(peer) && not (Node_id.equal peer t.node) then begin
    t.reach.(peer) <- false;
    t.with_self <- Node_id.Set.remove peer t.with_self;
    notify t peer Unreachable
  end

let sweep t =
  let now = Rt.now t.rt in
  for peer = 0 to Array.length t.reach - 1 do
    let heard = Plwg_transport.Transport.heard_at t.endpoint peer in
    if heard >= 0 && Time.diff now heard <= timeout then mark_reachable t peer else mark_unreachable t peer
  done
[@@zero_alloc_hot]

(* Beat only to peers this node sent nothing for a whole period: the
   longest silence a live peer shows is then about two periods, still
   under [timeout]. *)
let tick t =
  let now = Rt.now t.rt in
  for peer = 0 to Array.length t.reach - 1 do
    if not (Node_id.equal peer t.node) then begin
      let spoke = Plwg_transport.Transport.spoke_at t.endpoint peer in
      if spoke < 0 || Time.diff now spoke >= period then Plwg_transport.Transport.send_raw t.endpoint ~dst:peer t.beat
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
      beat = Heartbeat { from = node };
      reach = Array.make n_nodes false;
      with_self = Node_id.Set.singleton node;
      subscribers = [];
    }
  in
  (* Any delivery from a suspected peer ends the suspicion at once: a
     data message across a healed link must not wait for the sweep. *)
  Plwg_transport.Transport.on_receive endpoint (fun ~src _ -> if not t.reach.(src) then mark_reachable t src);
  (* stagger first beats so all nodes do not fire on the same instant *)
  Rt.every rt node ~first:(Time.us (node * 137)) ~period (fun () -> tick t);
  t

let status t peer = if Node_id.equal peer t.node || t.reach.(peer) then Reachable else Unreachable

let reachable_set t = t.with_self

let on_change t subscriber = t.subscribers <- subscriber :: t.subscribers
