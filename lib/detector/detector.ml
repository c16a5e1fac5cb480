open Plwg_sim
module Rt = Plwg_runtime.Rt

type Payload.t += Heartbeat of { from : Node_id.t }

let () =
  Payload.register_printer (function
    | Heartbeat { from } -> Some (Printf.sprintf "heartbeat(%s)" (Node_id.to_string from))
    | _ -> None)

type status = Reachable | Unreachable

(* heartbeat broadcast interval *)
let period = Time.ms 100

(* silence before suspicion; a few periods *)
let timeout = Time.ms 350

(* Reachability is tracked twice: [reach] (flat bool array) answers the
   per-heartbeat membership probe and [status] in O(1) with no tree
   walk, while [with_self] keeps the [Node_id.Set.t] clients consume.
   The set is updated only on actual transitions (rare), so the hot
   path — one heartbeat per peer per period, delivered to every node —
   is two array stores and a branch. *)
type t = {
  node : Node_id.t;
  rt : Rt.t;
  transport : Plwg_transport.Transport.t;
  last_heard : Time.t array; (* per peer; negative = never heard *)
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
    if t.reach.(peer) then begin
      let heard = t.last_heard.(peer) in
      if heard < 0 || Time.diff now heard > timeout then mark_unreachable t peer
    end
  done
[@@zero_alloc_hot]

let tick t =
  Plwg_transport.Transport.broadcast_raw t.transport ~src:t.node (Heartbeat { from = t.node });
  sweep t

let create transport node =
  let rt = Plwg_transport.Transport.runtime transport in
  let n_nodes = Rt.n_nodes rt in
  let t =
    {
      node;
      rt;
      transport;
      last_heard = Array.make n_nodes (-1);
      reach = Array.make n_nodes false;
      with_self = Node_id.Set.singleton node;
      subscribers = [];
    }
  in
  let endpoint = Plwg_transport.Transport.endpoint transport node in
  Plwg_transport.Transport.on_receive endpoint (fun ~src payload ->
      match payload with
      | Heartbeat { from } ->
          if from = src then begin
            t.last_heard.(src) <- Rt.now rt;
            mark_reachable t src
          end
      | _ -> ());
  (* stagger first beats so all nodes do not fire on the same instant *)
  Rt.every rt node ~first:(Time.us (node * 137)) ~period (fun () -> tick t);
  t

let node t = t.node

let status t peer = if Node_id.equal peer t.node || t.reach.(peer) then Reachable else Unreachable

let reachable_set t = t.with_self

let on_change t subscriber = t.subscribers <- subscriber :: t.subscribers
