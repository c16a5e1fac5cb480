(* Public face of the simulation library.  The interface narrows
   [Engine] to the runtime surface, sim driver controls and the
   executor API parallel backends build on: the raw fault transitions
   (crash / set_partition / ...) stay private to the library, so
   external fault injection goes through the validated [Fault] API. *)

module Time = Time
module Node_id = Node_id
module Payload = Payload
module Model = Model
module Topology = Topology
module Engine = Engine
module Fault = Fault
