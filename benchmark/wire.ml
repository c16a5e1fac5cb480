(* The protocol stacks the benchmark measures, wired without the test
   [Recorder].  [Plwg_harness.Stack.wire] and [Cluster.wire] always hook
   a recorder that keeps every delivery in a list: at ~51k deliveries
   per simulated second in [fanout] (twice that in Dynamic mode, where
   the carrier and LWG recorders both run) it would put a per-message
   allocation and an ever-growing heap into every number, and on the
   domains backend the list is shared across domains without
   synchronisation.  A later change to lib/ can make the recorder
   optional in [Stack.wire] and delete this copy. *)

open Plwg_sim
module Rt = Plwg_runtime.Rt
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector
module Hwg = Plwg_vsync.Hwg
module Service = Plwg.Service
module Server = Plwg_naming.Server
module Client = Plwg_naming.Client

(* App nodes are [0 .. n_app-1]; the runtime's remaining nodes become
   naming replicas, as in [Stack.wire]. *)
let service_stack ~config ~mode ~n_app ~callbacks rt =
  let n_nodes = Rt.n_nodes rt in
  let transport = Transport.create rt in
  let detectors = Array.init n_nodes (fun node -> Detector.create transport node) in
  let servers = List.init (n_nodes - n_app) (fun i -> n_app + i) in
  let replicas =
    List.map
      (fun node ->
        let peers = List.filter (fun p -> not (Node_id.equal p node)) servers in
        Server.create ~transport ~detector:detectors.(node) ~peers node)
      servers
  in
  let clients =
    match mode with
    | Service.Dynamic ->
        Array.init n_app (fun node -> Some (Client.create ~transport ~detector:detectors.(node) ~servers node))
    | Service.Direct | Service.Static _ -> Array.make n_app None
  in
  let services =
    Array.init n_app (fun node ->
        Service.create ~config ~mode ~transport ~detector:detectors.(node) ?ns:clients.(node) (callbacks node) node)
  in
  (transport, services, replicas)

let hwg_stack ~callbacks rt =
  let transport = Transport.create rt in
  let n_nodes = Rt.n_nodes rt in
  let detectors = Array.init n_nodes (fun node -> Detector.create transport node) in
  Array.init n_nodes (fun node -> Hwg.create ~transport ~detector:detectors.(node) (callbacks node) node)
