open Plwg_sim

type cancel = unit -> unit

module type S = sig
  type t

  val now : t -> Time.t
  val n_nodes : t -> int
  val nodes : t -> Node_id.t list
  val is_alive : t -> Node_id.t -> bool
  val subscribe : t -> Node_id.t -> (src:Node_id.t -> Payload.t -> unit) -> unit
  val send : t -> src:Node_id.t -> dst:Node_id.t -> Payload.t -> unit
  val multicast : t -> src:Node_id.t -> dsts:Node_id.t list -> Payload.t -> unit
  val after_node : t -> Node_id.t -> Time.span -> (unit -> unit) -> cancel
  val after_node_ : t -> Node_id.t -> Time.span -> (unit -> unit) -> unit
  val at_node_ : t -> Node_id.t -> Time.span -> (unit -> unit) -> unit
  val on_recover : t -> Node_id.t -> (unit -> unit) -> unit
  val rng_node : t -> Node_id.t -> Plwg_util.Rng.t
  val trace : t -> (unit -> Plwg_obs.Event.t) -> unit
  val count : ?by:int -> t -> string -> unit
  val observe : t -> string -> float -> unit
end

type t = Rt : (module S with type t = 'a) * 'a -> t

let now (Rt ((module B), h)) = B.now h
let n_nodes (Rt ((module B), h)) = B.n_nodes h
let nodes (Rt ((module B), h)) = B.nodes h
let is_alive (Rt ((module B), h)) node = B.is_alive h node
let subscribe (Rt ((module B), h)) node handler = B.subscribe h node handler
let send (Rt ((module B), h)) ~src ~dst payload = B.send h ~src ~dst payload
let multicast (Rt ((module B), h)) ~src ~dsts payload = B.multicast h ~src ~dsts payload
let after_node (Rt ((module B), h)) node span action = B.after_node h node span action
let after_node_ (Rt ((module B), h)) node span action = B.after_node_ h node span action
let at_node_ (Rt ((module B), h)) node span action = B.at_node_ h node span action
let on_recover (Rt ((module B), h)) node hook = B.on_recover h node hook
let rng_node (Rt ((module B), h)) node = B.rng_node h node
let trace (Rt ((module B), h)) make = B.trace h make
let count ?by (Rt ((module B), h)) name = B.count ?by h name
let observe (Rt ((module B), h)) name v = B.observe h name v

let forever () = true

let every ?(while_ = forever) rt node ~first ~period body =
  let rec loop () =
    if while_ () then begin
      if is_alive rt node then body ();
      at_node_ rt node period loop
    end
  in
  at_node_ rt node first loop

(* [trace] forces its thunk before recording anything, so a thunk that
   raises escapes exactly when a sink is attached; wrappers that forward
   [trace] (the benchmark's shim) keep the answer. *)
exception Tracing_probe

let probe () = raise Tracing_probe

let tracing rt = match trace rt probe with () -> false | exception Tracing_probe -> true
