open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Service = Plwg.Service
module Server = Plwg_naming.Server
module Db = Plwg_naming.Db
module Hwg = Plwg_vsync.Hwg

type stage = { label : string; reached_at_ms : float; rendering : string }

type outcome = {
  stages : stage list;
  converged : bool;
  trace_violations : string list;
}

let lwg_a = { Gid.seq = 1_000_001; origin = 0 }
let lwg_b = { Gid.seq = 1_000_002; origin = 0 }

let render db = String.trim (Format.asprintf "%a" Db.pp db)

(* Figure 3's setup: LWG_a on HWG_1 and LWG_b on HWG_2 in both
   partitions initially; partition p' then crosses its mappings
   (a' -> hwg_2, b' -> hwg_1).  The policies are quiesced so the
   scripted criss-cross is exactly what the naming service sees, and
   the name servers gossip slowly enough that each Table 4 stage is
   observable. *)
let run ?obs ?(seed = 90) () =
  let config = { Service.default_config with Service.policy_period = Time.sec 600 } in
  let ns_config = { Server.gossip_period = Time.ms 800 } in
  let stack = Stack.create ?obs ~config ~ns_config ~mode:Stack.Dynamic ~seed ~n_app:4 () in
  let services = stack.Stack.services in
  let db () = Server.db (List.hd stack.Stack.ns_servers) in
  Array.iter
    (fun service ->
      Service.join service lwg_a;
      Service.join service lwg_b)
    services;
  Stack.run stack (Time.sec 12);
  (* both groups start on one shared HWG; move b to its own *)
  let hwg_2 = Hwg.fresh_gid (Service.hwg_service services.(0)) in
  Service.request_switch services.(0) lwg_b hwg_2;
  Stack.run stack (Time.sec 8);
  let hwg_1 = Option.get (Service.mapping_of services.(0) lwg_a) in
  let s0 = List.nth stack.Stack.server_nodes 0 and s1 = List.nth stack.Stack.server_nodes 1 in
  Sim_rt.set_partition stack.Stack.engine [ [ 0; 1; s0 ]; [ 2; 3; s1 ] ];
  Stack.run stack (Time.sec 6);
  (* partition p' crosses its mappings *)
  Service.request_switch services.(2) lwg_a hwg_2;
  Service.request_switch services.(2) lwg_b hwg_1;
  Stack.run stack (Time.sec 10);
  Sim_rt.heal stack.Stack.engine;
  let heal_time = Sim_rt.now stack.Stack.engine in
  let since_heal () = Time.to_float_ms (Time.diff (Sim_rt.now stack.Stack.engine) heal_time) in
  ignore hwg_1;
  ignore hwg_2;
  let dbs () = List.map Server.db stack.Stack.ns_servers in
  let stages = ref [] in
  let seen label = List.exists (fun s -> s.label = label) !stages in
  let capture label witness =
    if not (seen label) then
      stages := { label; reached_at_ms = since_heal (); rendering = render witness } :: !stages
  in
  let live g = Db.read (db ()) g in
  (* concurrent views of the winner HWG unified into one 4-member view *)
  let hwgs_merged () =
    match Service.mapping_of services.(0) lwg_a with
    | Some h -> (
        match Hwg.view_of (Service.hwg_service services.(0)) h with
        | Some v -> Int.equal (List.length v.View.members) 4
        | None -> false)
    | None -> false
  in
  let consistent database g =
    match Db.read database g with
    | first :: (_ :: _ as rest) -> List.for_all (fun e -> Gid.equal e.Db.hwg first.Db.hwg) rest
    | [] | [ _ ] -> false
  in
  let converged () =
    Stack.lwg_converged stack lwg_a && Stack.lwg_converged stack lwg_b
    && Int.equal (List.length (live lwg_a)) 1
    && Int.equal (List.length (live lwg_b)) 1
  in
  (* observe from inside the simulation: the reconciliation takes only
     a few simulated milliseconds, far finer than outer run steps *)
  let watching = ref true in
  let rec observe () =
    if !watching then begin
      List.iter
        (fun database ->
          if Db.conflicting database lwg_a || Db.conflicting database lwg_b then
            capture "1) merged naming service" database;
          if consistent database lwg_a && consistent database lwg_b then capture "3) switched LwGs" database)
        (dbs ());
      if hwgs_merged () then capture "2) merged HwGs" (db ());
      let (_ : Sim_rt.cancel) = Sim_rt.after stack.Stack.engine (Time.ms 1) observe in
      ()
    end
  in
  observe ();
  let steps = ref 0 in
  while (not (converged ())) && !steps < 80 do
    Stack.run stack (Time.ms 500);
    incr steps
  done;
  watching := false;
  Stack.run stack (Time.sec 2);
  if converged () then capture "4) merged LwGs" (db ());
  let n_nodes = List.length stack.Stack.app_nodes + List.length stack.Stack.server_nodes in
  {
    stages = List.rev !stages;
    converged = converged ();
    trace_violations = Trace_check.check_sink (Trace_check.check_all ~n_nodes) stack.Stack.obs.Plwg_obs.sink;
  }

let print outcome =
  Printf.printf "\n# Tables 3 & 4: naming-service evolution through a partition heal\n";
  List.iter
    (fun stage ->
      Printf.printf "\n-- %s (t = heal + %.0f ms)\n%s\n" stage.label stage.reached_at_ms stage.rendering)
    outcome.stages;
  List.iter (fun v -> Printf.printf "trace violation: %s\n" v) outcome.trace_violations;
  Printf.printf "\nconverged: %b; trace violations: %d\n" outcome.converged (List.length outcome.trace_violations)
