open Plwg_sim
module Rt = Plwg_runtime.Rt
module Sim_rt = Plwg_runtime.Sim_rt
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector
module Service = Plwg.Service
module Server = Plwg_naming.Server
module Client = Plwg_naming.Client

type service_mode = Direct | Static | Dynamic

(* Backend-agnostic wiring: everything above the runtime, shared by the
   sim fixture below and the conformance harness that runs the same
   stack on the multi-domain backend. *)
type parts = {
  p_transport : Transport.t;
  p_detectors : Detector.t array;
  p_services : Service.t array;
  p_ns_servers : Server.t list;
  p_ns_clients : Client.t array;
  p_app_nodes : Node_id.t list;
  p_server_nodes : Node_id.t list;
}

type t = {
  engine : Sim_rt.t;
  obs : Plwg_obs.t;
  transport : Transport.t;
  detectors : Detector.t array;
  services : Service.t array;
  ns_servers : Server.t list;
  ns_clients : Client.t array;
  app_nodes : Node_id.t list;
  server_nodes : Node_id.t list;
}

let n_servers = 2

let static_hwg = { Plwg_vsync.Types.Gid.seq = 500_000; origin = 0 }

let wire ?(config = Service.default_config) ?(ns_config = Server.default_config)
    ?(callbacks = fun _ -> Service.no_callbacks) ~mode ~n_app rt =
  (* Node layout: app nodes are [0 .. n_app-1]; whatever the runtime has
     beyond them are naming replicas (Dynamic mode only). *)
  let n_nodes = Rt.n_nodes rt in
  let with_servers = n_nodes - n_app in
  (match mode with
  | Dynamic when with_servers <= 0 -> invalid_arg "Stack.wire: Dynamic mode needs naming replica nodes"
  | Dynamic | Direct | Static -> ());
  let transport = Transport.create rt in
  let detectors = Array.init n_nodes (fun node -> Detector.create transport node) in
  let app_nodes = List.init n_app (fun i -> i) in
  let server_nodes = match mode with Dynamic -> List.init with_servers (fun i -> n_app + i) | Direct | Static -> [] in
  let ns_servers =
    List.map
      (fun node ->
        Server.create ~config:ns_config ~transport ~detector:detectors.(node)
          ~peers:(List.filter (fun p -> not (Node_id.equal p node)) server_nodes)
          node)
      server_nodes
  in
  let ns_clients =
    match mode with
    | Dynamic ->
        Array.init n_app (fun node ->
            Client.create ~transport ~detector:detectors.(node) ~servers:server_nodes node)
    | Direct | Static -> [||]
  in
  let service_mode =
    match mode with Direct -> Service.Direct | Static -> Service.Static static_hwg | Dynamic -> Service.Dynamic
  in
  let services =
    Array.init n_app (fun node ->
        let ns = match mode with Dynamic -> Some ns_clients.(node) | Direct | Static -> None in
        Service.create ~config ~mode:service_mode ~transport ~detector:detectors.(node) ?ns
          (callbacks node) node)
  in
  {
    p_transport = transport;
    p_detectors = detectors;
    p_services = services;
    p_ns_servers = ns_servers;
    p_ns_clients = ns_clients;
    p_app_nodes = app_nodes;
    p_server_nodes = server_nodes;
  }

let create ?obs ?(model = Model.default) ?(seed = 42) ?(config = Service.default_config)
    ?(ns_config = Server.default_config) ?(callbacks = fun _ -> Service.no_callbacks) ~mode ~n_app () =
  let with_servers = match mode with Dynamic -> n_servers | Direct | Static -> 0 in
  let n_nodes = n_app + with_servers in
  let obs = match obs with Some obs -> obs | None -> Plwg_obs.create () in
  let engine = Sim_rt.create ~obs ~model ~seed ~n_nodes () in
  let parts = wire ~config ~ns_config ~callbacks ~mode ~n_app (Sim_rt.rt engine) in
  {
    engine;
    obs;
    transport = parts.p_transport;
    detectors = parts.p_detectors;
    services = parts.p_services;
    ns_servers = parts.p_ns_servers;
    ns_clients = parts.p_ns_clients;
    app_nodes = parts.p_app_nodes;
    server_nodes = parts.p_server_nodes;
  }

let run t span = Sim_rt.run_span t.engine span

let lwg_converged t lwg =
  List.for_all
    (fun component ->
      let holders =
        List.filter_map
          (fun node -> Option.map (fun v -> (node, v)) (Service.view_of t.services.(node) lwg))
          component
      in
      Agreement.holders_agree holders = Agreement.Agreed
      &&
      match holders with
      | [] -> true
      | (first, _) :: _ ->
          let mapping node = Service.mapping_of t.services.(node) lwg in
          List.for_all (fun (node, _) -> Option.equal Plwg_vsync.Types.Gid.equal (mapping node) (mapping first)) holders)
    (Agreement.components (Sim_rt.topology t.engine) ~among:t.app_nodes)

let check_vs t = Trace_check.check_sink Trace_check.check_vs t.obs.Plwg_obs.sink
