open Plwg_sim
module Rt = Plwg_runtime.Rt
module Deque = Plwg_util.Deque
module Seqbuf = Plwg_util.Seqbuf

type Payload.t +=
  | Seg of { conn : int; seq : int; body : Payload.t }
  | Ack of { conn : int; next : int }

let () =
  Payload.register_printer (function
    | Seg { conn; seq; body } -> Some (Printf.sprintf "seg(c%d,#%d,%s)" conn seq (Payload.to_string body))
    | Ack { conn; next } -> Some (Printf.sprintf "ack(c%d,>%d)" conn next)
    | _ -> None)

(* initial retransmission timeout *)
let rto = Time.ms 20

(* backoff cap *)
let max_rto = Time.ms 320

(* retransmissions before the connection resets *)
let give_up_after = 8

(* One unacked segment, drawn from a per-endpoint freelist and returned
   to it when the cumulative ack (or a connection reset) retires it, so
   steady-state sending allocates no per-message records.  A released
   slot is poisoned: [s_free] set, body swapped for [Released_slot] and
   the generation stamp bumped, so any path still holding one trips
   [slot_check] instead of silently replaying stale bytes. *)
type Payload.t += Released_slot

type slot = {
  mutable s_seq : int;
  mutable s_body : Payload.t;
  mutable s_free : bool;
  mutable s_gen : int; (* bumped on release: epoch of the current occupancy *)
  mutable s_next : slot; (* freelist link, [slot_nil]-terminated *)
}

let rec slot_nil =
  { s_seq = -1; s_body = Released_slot; s_free = true; s_gen = 0; s_next = slot_nil }
[@@shared_cell "freelist terminator: a sentinel whose fields are never read or written"]

(* Use-after-release detection on every read of a pooled slot
   (retransmit, ack prune, reset drain).  Always on: the check is a load
   and a branch, and a stale slot observed on the wire is a
   protocol-corrupting bug worth crashing on. *)
let slot_check slot =
  if slot.s_free || slot.s_body == Released_slot then
    failwith "transport: use-after-release of pooled unacked slot"

(* Sender side of one (src, dst) connection.  The unacked window is a
   ring: sends push at the back, cumulative acks pop from the front, so
   a deep backlog costs O(1) per message instead of the O(n) append and
   O(n) ack re-filter of the list it replaces. *)
type out_conn = {
  mutable out_id : int;
  mutable next_seq : int;
  unacked : slot Deque.t; (* oldest first, seq strictly increasing *)
  mutable acked_progress : int; (* value of peer's last cumulative ack *)
  mutable retries : int;
  mutable cur_rto : Time.span;
  mutable timer : Rt.cancel; (* [no_timer] when none is armed *)
  rto_fire : unit -> unit; (* the retransmission timer's action, built once per connection *)
}

(* The disarmed retransmission timer, compared physically: cancelling
   it is a no-op, and arming costs only the engine's handle. *)
let no_timer : Rt.cancel = fun () -> ()

(* Receiver side of one (src, dst) connection. *)
type in_conn = {
  mutable in_id : int;
  mutable next_expected : int;
  out_of_order : Payload.t Seqbuf.t; (* keyed by seq *)
  mutable ack_pending : bool;
  ack_fire : unit -> unit; (* the delayed ack's timer action, built once per connection *)
}

type endpoint = {
  node : Node_id.t;
  rt : Rt.t;
  mutable conn_counter : int;
  (* Per-peer connection state, indexed by node id.  Node ids are dense
     small ints, so a flat array turns the two per-message lookups
     (sender's in-conn, acker's out-conn) into loads with no hashing.
     The [Some] is allocated once per peer, never per message. *)
  outs : out_conn option array;
  ins : in_conn option array;
  mutable handlers : (src:Node_id.t -> Payload.t -> unit) list; (* newest-first *)
  mutable frozen_handlers : (src:Node_id.t -> Payload.t -> unit) array; (* registration order *)
  mutable handlers_dirty : bool;
  mutable in_flight : int; (* total unacked across all out connections *)
  mutable in_flight_peak : int;
  mutable slot_free : slot; (* freelist of released unacked slots *)
  (* Per-peer liveness evidence, indexed by node id, negative = never:
     the last arrival of anything from the peer, and the last send of
     anything to it.  The detector reads both instead of keeping its
     own heartbeat clock. *)
  heard : Time.t array;
  spoke : Time.t array;
}

(* Every unicast this endpoint puts on the wire to a peer goes through
   here, so [spoke] sees them all; a [broadcast_raw] does not count. *)
let emit ep ~dst payload =
  ep.spoke.(dst) <- Rt.now ep.rt;
  Rt.send ep.rt ~src:ep.node ~dst payload
[@@zero_alloc_hot]

let alloc_slot ep ~seq ~body =
  let s = ep.slot_free in
  if s != slot_nil then begin
    ep.slot_free <- s.s_next;
    s.s_seq <- seq;
    s.s_body <- body;
    s.s_free <- false;
    s.s_next <- slot_nil;
    s
  end
  else
    ({ s_seq = seq; s_body = body; s_free = false; s_gen = 0; s_next = slot_nil }
    [@alloc_ok "pool growth: cold path, amortised by the freelist"])
[@@zero_alloc_hot]

let release_slot ep s =
  s.s_free <- true;
  s.s_gen <- s.s_gen + 1;
  s.s_body <- Released_slot;
  s.s_next <- ep.slot_free;
  ep.slot_free <- s
[@@zero_alloc_hot]

type t = {
  fabric_rt : Rt.t;
  endpoints : endpoint option array;
  others : Node_id.t list array; (* per source: every node but it, for [broadcast_raw] *)
}

let create rt =
  let nodes = Rt.nodes rt in
  {
    fabric_rt = rt;
    endpoints = Array.make (Rt.n_nodes rt) None;
    others = Array.init (Rt.n_nodes rt) (fun src -> List.filter (fun n -> not (Node_id.equal n src)) nodes);
  }

let runtime t = t.fabric_rt

(* Handlers are stored newest-first; the reversed (registration-order)
   list is frozen into an array on the first delivery after a
   registration, so the per-message path is a plain array walk with no
   [List.rev] allocation. *)
let deliver ep ~src body =
  (if ep.handlers_dirty then begin
     ep.frozen_handlers <- Array.of_list (List.rev ep.handlers);
     ep.handlers_dirty <- false
   end)
  [@alloc_ok "handler freeze: runs once per subscription change, not per segment"];
  let handlers = ep.frozen_handlers in
  for i = 0 to Array.length handlers - 1 do
    handlers.(i) ~src body
  done
[@@zero_alloc_hot]

let ack_delay = Time.ms 5

let fire_ack ep ~dst ic =
  ic.ack_pending <- false;
  emit ep ~dst (Ack { conn = ic.in_id; next = ic.next_expected })

let get_in ep src =
  match ep.ins.(src) with
  | Some ic -> ic
  | None ->
      let out_of_order = Seqbuf.create () in
      let rec ic =
        {
          in_id = -1;
          next_expected = 0;
          out_of_order;
          ack_pending = false;
          ack_fire = (fun () -> fire_ack ep ~dst:src ic);
        }
      in
      ep.ins.(src) <- Some ic;
      ic

(* At most one delayed ack is pending per connection; it acks whatever
   has arrived in order by the time it fires. *)
let send_ack ep ic =
  if not ic.ack_pending then begin
    ic.ack_pending <- true;
    Rt.after_node_ ep.rt ep.node ack_delay ic.ack_fire
  end
[@@zero_alloc_hot]

let rec drain_in_order ep ~src ic =
  match Seqbuf.min_opt ic.out_of_order with
  | Some (seq, body) when seq = ic.next_expected ->
      Seqbuf.remove_min ic.out_of_order;
      ic.next_expected <- seq + 1;
      deliver ep ~src body;
      drain_in_order ep ~src ic
  | Some (seq, _) when seq < ic.next_expected ->
      Seqbuf.remove_min ic.out_of_order;
      drain_in_order ep ~src ic
  | _ -> ()

let on_seg ep ~src ~conn ~seq body =
  let ic = get_in ep src in
  if conn > ic.in_id then begin
    (* peer reset the connection: restart the stream *)
    ic.in_id <- conn;
    ic.next_expected <- 0;
    Seqbuf.clear ic.out_of_order
  end;
  if conn = ic.in_id then begin
    if seq = ic.next_expected then begin
      ic.next_expected <- seq + 1;
      deliver ep ~src body;
      (* steady state the reorder buffer is empty; [min_opt] would
         allocate an option per delivered segment *)
      if not (Seqbuf.is_empty ic.out_of_order) then drain_in_order ep ~src ic
    end
    else if seq > ic.next_expected then Seqbuf.add ic.out_of_order seq body;
    send_ack ep ic
  end
[@@zero_alloc_hot]
(* conn < ic.in_id: stale fragment of an abandoned connection; drop. *)

let reset_out ep ~dst oc =
  Rt.count ep.rt "transport.conn_resets";
  Deque.iter
    (fun s ->
      slot_check s;
      Rt.trace ep.rt (fun () ->
          Plwg_obs.Event.Msg_dropped
            { src = ep.node; dst; kind = Payload.to_string s.s_body; reason = "conn-reset" }))
    oc.unacked;
  oc.timer ();
  ep.conn_counter <- ep.conn_counter + 1;
  ep.in_flight <- ep.in_flight - Deque.length oc.unacked;
  oc.out_id <- ep.conn_counter;
  oc.next_seq <- 0;
  Deque.iter (release_slot ep) oc.unacked;
  Deque.clear oc.unacked;
  oc.acked_progress <- 0;
  oc.retries <- 0;
  oc.cur_rto <- rto;
  oc.timer <- no_timer

let retransmit_batch = 32

let arm_timer ep oc = oc.timer <- Rt.after_node ep.rt ep.node oc.cur_rto oc.rto_fire

let rto_expired ep ~dst oc =
  oc.timer <- no_timer;
  if not (Deque.is_empty oc.unacked) then begin
    oc.retries <- oc.retries + 1;
    if oc.retries > give_up_after then reset_out ep ~dst oc
    else begin
      let batch = min retransmit_batch (Deque.length oc.unacked) in
      for i = 0 to batch - 1 do
        let s = Deque.get oc.unacked i in
        slot_check s;
        Rt.count ep.rt "transport.retransmits";
        emit ep ~dst (Seg { conn = oc.out_id; seq = s.s_seq; body = s.s_body })
      done;
      oc.cur_rto <- min (oc.cur_rto * 2) max_rto;
      arm_timer ep oc
    end
  end

let get_out ep dst =
  match ep.outs.(dst) with
  | Some oc -> oc
  | None ->
      ep.conn_counter <- ep.conn_counter + 1;
      let rec oc =
        {
          out_id = ep.conn_counter;
          next_seq = 0;
          unacked = Deque.create ~dummy:slot_nil ();
          acked_progress = 0;
          retries = 0;
          cur_rto = rto;
          timer = no_timer;
          rto_fire = (fun () -> rto_expired ep ~dst oc);
        }
      in
      ep.outs.(dst) <- Some oc;
      oc

(* Cumulative ack: sequence numbers are strictly increasing front to
   back, so everything below [next] sits at the front. *)
let rec prune_acked ep oc ~next =
  let s = Deque.front_or oc.unacked ~none:slot_nil in
  if s != slot_nil then begin
    slot_check s;
    if s.s_seq < next then begin
      Deque.drop_front oc.unacked;
      release_slot ep s;
      ep.in_flight <- ep.in_flight - 1;
      prune_acked ep oc ~next
    end
  end
[@@zero_alloc_hot]

let on_ack ep ~src ~conn ~next =
  match ep.outs.(src) with
  | None -> ()
  | Some oc when oc.out_id = conn ->
      if next > oc.acked_progress then begin
        oc.acked_progress <- next;
        oc.retries <- 0;
        oc.cur_rto <- rto
      end;
      prune_acked ep oc ~next;
      if Deque.is_empty oc.unacked then begin
        oc.timer ();
        oc.timer <- no_timer
      end
  | _ -> ()
[@@zero_alloc_hot]

let handle ep ~src payload =
  ep.heard.(src) <- Rt.now ep.rt;
  match payload with
  | Seg { conn; seq; body } -> on_seg ep ~src ~conn ~seq body
  | Ack { conn; next } -> on_ack ep ~src ~conn ~next
  | other -> deliver ep ~src other (* best-effort datagram *)

let endpoint t node =
  match t.endpoints.(node) with
  | Some ep -> ep
  | None ->
      let n_nodes = Rt.n_nodes t.fabric_rt in
      let ep =
        {
          node;
          rt = t.fabric_rt;
          conn_counter = 0;
          outs = Array.make n_nodes None;
          ins = Array.make n_nodes None;
          handlers = [];
          frozen_handlers = [||];
          handlers_dirty = false;
          in_flight = 0;
          in_flight_peak = 0;
          slot_free = slot_nil;
          heard = Array.make n_nodes (-1);
          spoke = Array.make n_nodes (-1);
        }
      in
      t.endpoints.(node) <- Some ep;
      Rt.subscribe t.fabric_rt node (fun ~src payload -> handle ep ~src payload);
      (* Timers pending when this node crashed were silently skipped,
         leaving stale timer handles: retransmission would never
         re-arm (send only arms when [timer == no_timer]) and a pending ack
         would never fire while [ack_pending] stays set.  Reset both on
         recovery so backlogs drain again. *)
      Rt.on_recover t.fabric_rt node (fun () ->
          (* array index order = node-id order, so iteration is
             deterministic without the sorted-table walk *)
          Array.iter
            (fun oc ->
              match oc with
              | Some oc when not (Deque.is_empty oc.unacked) ->
                  oc.timer ();
                  oc.cur_rto <- rto;
                  arm_timer ep oc
              | _ -> ())
            ep.outs;
          Array.iteri
            (fun _src ic ->
              match ic with
              | Some ic when ic.ack_pending ->
                  ic.ack_pending <- false;
                  send_ack ep ic
              | _ -> ())
            ep.ins);
      ep

let send ep ~dst body =
  if Node_id.equal dst ep.node then
    (* local loop-back: the runtime's self-delivery is already reliable FIFO *)
    Rt.send ep.rt ~src:ep.node ~dst body
  else begin
    let oc = get_out ep dst in
    let seq = oc.next_seq in
    oc.next_seq <- seq + 1;
    Deque.push_back oc.unacked (alloc_slot ep ~seq ~body);
    ep.in_flight <- ep.in_flight + 1;
    if ep.in_flight > ep.in_flight_peak then ep.in_flight_peak <- ep.in_flight;
    emit ep ~dst
      ((Seg { conn = oc.out_id; seq; body }) [@alloc_ok "the wire segment itself: the one block a send must build"]);
    if oc.timer == no_timer then arm_timer ep oc
  end
[@@zero_alloc_hot]

let send_raw ep ~dst payload = emit ep ~dst payload

let on_receive ep handler =
  ep.handlers <- handler :: ep.handlers;
  ep.handlers_dirty <- true

let broadcast_raw t ~src payload = Rt.multicast t.fabric_rt ~src ~dsts:t.others.(src) payload
[@@zero_alloc_hot]

let in_flight ep = ep.in_flight

let in_flight_peak ep = ep.in_flight_peak

let heard_at ep peer = ep.heard.(peer)

let spoke_at ep peer = ep.spoke.(peer)
