open Plwg_sim
module Rt = Plwg_runtime.Rt
module Sim_rt = Plwg_runtime.Sim_rt
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector
module Hwg = Plwg_vsync.Hwg

type parts = {
  p_transport : Transport.t;
  p_detectors : Detector.t array;
  p_hwgs : Hwg.t array;
}

type t = {
  engine : Sim_rt.t;
  obs : Plwg_obs.t;
  transport : Transport.t;
  detectors : Detector.t array;
  hwgs : Hwg.t array;
}

let wire ?(callbacks = fun _ -> Hwg.no_callbacks) rt =
  let n_nodes = Rt.n_nodes rt in
  let transport = Transport.create rt in
  let detectors = Array.init n_nodes (fun node -> Detector.create transport node) in
  let hwgs =
    Array.init n_nodes (fun node -> Hwg.create ~transport ~detector:detectors.(node) (callbacks node) node)
  in
  { p_transport = transport; p_detectors = detectors; p_hwgs = hwgs }

let create ?obs ?(model = Model.default) ?(callbacks = fun _ -> Hwg.no_callbacks) ~seed ~n_nodes () =
  let obs = match obs with Some obs -> obs | None -> Plwg_obs.create () in
  let engine = Sim_rt.create ~obs ~model ~seed ~n_nodes () in
  let parts = wire ~callbacks (Sim_rt.rt engine) in
  {
    engine;
    obs;
    transport = parts.p_transport;
    detectors = parts.p_detectors;
    hwgs = parts.p_hwgs;
  }

let run t span = Sim_rt.run_span t.engine span

let converged t group =
  let topology = Sim_rt.topology t.engine in
  List.for_all
    (fun component ->
      let holders =
        List.filter_map
          (fun node ->
            if Hwg.is_member t.hwgs.(node) group then
              Option.map (fun v -> (node, v)) (Hwg.view_of t.hwgs.(node) group)
            else None)
          component
      in
      Agreement.holders_agree holders = Agreement.Agreed)
    (Agreement.components topology ~among:(Topology.all_nodes topology))
