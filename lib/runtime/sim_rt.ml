open Plwg_sim

type t = Engine.t

(* The backend module is the engine's runtime surface verbatim; packing
   allocates once per stack, not per call. *)
module Backend : Rt.S with type t = t = Engine

include (Backend : Rt.S with type t := t)

type cancel = Rt.cancel

let rt engine = Rt.Rt ((module Backend), engine)

let create = Engine.create
let topology = Engine.topology
let after = Engine.after
let run = Engine.run
let run_span = Engine.run_span
type stats = Engine.stats = { sent : int; delivered : int; wire_dropped : int; unreachable_dropped : int }

let stats = Engine.stats
let in_flight = Engine.in_flight

let crash t node = Engine.apply_step t (Engine.Crash node)
let recover t node = Engine.apply_step t (Engine.Recover node)
let set_partition t classes = Engine.apply_step t (Engine.Partition classes)
let heal t = Engine.apply_step t Engine.Heal
