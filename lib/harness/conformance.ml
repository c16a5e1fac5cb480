(* Backend conformance: one seeded LWG scenario, run on the
   deterministic simulator (the oracle) and on the multi-domain
   backend, compared modulo the per-node commutativity relation.

   The relation (documented in DESIGN.md, "Runtime layer"): two
   executions are equivalent when

   - for every (receiver, group, sender) channel, the sequence of
     application payloads delivered on that channel is identical, and
   - every (node, group) ends with the same view membership.

   Deliveries at different nodes, and deliveries from different senders
   at the same node, are allowed to interleave differently — those are
   exactly the reorderings a parallel schedule can produce without
   touching anything the protocol stack promises (per-sender FIFO
   within a group, view agreement).  Wall-positions and timestamps are
   excluded: the backends draw link jitter from different streams.

   On top of the cross-backend check, each backend is replayed against
   itself: the sim must reproduce its trace byte-for-byte, the domains
   backend must reproduce channels, views and its merged trace for a
   fixed (seed, n_domains). *)

open Plwg_sim
module Rt = Plwg_runtime.Rt
module Sim_rt = Plwg_runtime.Sim_rt
module Domains_rt = Plwg_runtime_domains.Domains_rt
module Service = Plwg.Service
module Gid = Plwg_vsync.Types.Gid
module View = Plwg_vsync.Types.View

type Payload.t += Conf_data of { sender : int; seq : int }

let () =
  Payload.register_printer (function
    | Conf_data { sender; seq } -> Some (Printf.sprintf "conf-data(n%d,#%d)" sender seq)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* The scenario                                                        *)
(* ------------------------------------------------------------------ *)

let n_app = 4
let groups = [ ({ Gid.seq = 9001; origin = 0 }, [ 0; 1; 2 ]); ({ Gid.seq = 9002; origin = 1 }, [ 1; 2; 3 ]) ]
let warmup = Time.sec 4
let period = Time.ms 50
let k_msgs = 15
let horizon = Time.sec 7

(* Wire the Direct-mode LWG stack on [rt], join the groups, and lay
   down the staggered per-sender traffic as node-affine one-shot
   timers.  Returns the per-receiver delivery logs (slot [n] is written
   only on [n]'s executor) and the wired parts. *)
let scenario rt =
  let deliveries = Array.make n_app [] (* (group, sender, seq), newest first *) in
  let callbacks node =
    {
      Service.on_view = (fun _ _ -> ());
      on_data =
        (fun gid ~src:_ payload ->
          match payload with
          | Conf_data { sender; seq } ->
              (* plwg-lint: allow gid-string-boundary — conformance comparison key, scenario-scale traffic *)
              deliveries.(node) <- (Gid.to_string gid, sender, seq) :: deliveries.(node)
          | _ -> ());
    }
  in
  let parts = Stack.wire ~callbacks ~mode:Stack.Direct ~n_app rt in
  List.iter (fun (gid, members) -> List.iter (fun m -> Service.join parts.Stack.p_services.(m) gid) members) groups;
  List.iter
    (fun (gid, members) ->
      List.iter
        (fun m ->
          (* stagger senders and groups so sends do not collide on one
             instant, then fire [k_msgs] one-shot timers per sender *)
          let stagger = Time.us ((m * 5_000) + ((gid.Gid.seq mod 2) * 2_500)) in
          for i = 1 to k_msgs do
            let at = Time.add (Time.add warmup stagger) (i * period) in
            Rt.at_node_ rt m at (fun () ->
                Service.send parts.Stack.p_services.(m) gid (Conf_data { sender = m; seq = i }))
          done)
        members)
    groups;
  (deliveries, parts)

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type channel = { rcv : int; group : string; sender : int; seqs : int list }

type outcome = {
  channels : channel list;  (* sorted by (rcv, group, sender) *)
  views : (int * string * int list) list;  (* (node, group, members), sorted *)
  trace : string;  (* trace sink contents, one JSON line per event *)
  violations : string list;  (* [Trace_check.check_vs] of the run's trace *)
}

let channels_of deliveries =
  let all = ref [] in
  Array.iteri
    (fun rcv log ->
      (* assoc accumulation: channel count is tiny (groups x senders) *)
      let by_channel = ref [] in
      List.iter
        (fun (group, sender, seq) ->
          let same ((g, s), _) = String.equal g group && Int.equal s sender in
          match List.find_opt same !by_channel with
          | Some (key, rev_seqs) ->
              by_channel := (key, seq :: rev_seqs) :: List.filter (fun entry -> not (same entry)) !by_channel
          | None -> by_channel := ((group, sender), [ seq ]) :: !by_channel)
        (List.rev log);
      List.iter
        (fun ((group, sender), rev_seqs) -> all := { rcv; group; sender; seqs = List.rev rev_seqs } :: !all)
        !by_channel)
    deliveries;
  List.sort
    (fun a b ->
      let c = Int.compare a.rcv b.rcv in
      if c <> 0 then c
      else
        let c = String.compare a.group b.group in
        if c <> 0 then c else Int.compare a.sender b.sender)
    !all

let views_of parts =
  List.concat_map
    (fun (gid, members) ->
      List.map
        (fun m ->
          let members_of_view =
            match Service.view_of parts.Stack.p_services.(m) gid with
            | Some v -> v.View.members
            | None -> []
          in
          (* plwg-lint: allow gid-string-boundary — conformance comparison key, end-of-run *)
          (m, Gid.to_string gid, members_of_view))
        members)
    groups
  |> List.sort (fun (a, ga, _) (b, gb, _) ->
         let c = Int.compare a b in
         if c <> 0 then c else String.compare ga gb)

let trace_of obs =
  let buf = Buffer.create 4096 in
  Plwg_obs.Sink.iter obs.Plwg_obs.sink (fun entry ->
      Buffer.add_string buf (Plwg_obs.Json.to_string (Plwg_obs.Event.to_json entry));
      Buffer.add_char buf '\n');
  Buffer.contents buf

let outcome deliveries parts obs =
  {
    channels = channels_of deliveries;
    views = views_of parts;
    trace = trace_of obs;
    violations = Trace_check.check_sink Trace_check.check_vs obs.Plwg_obs.sink;
  }

let run_sim ~seed =
  let obs = Plwg_obs.create () in
  let engine = Sim_rt.create ~obs ~model:Model.default ~seed ~n_nodes:n_app () in
  let deliveries, parts = scenario (Sim_rt.rt engine) in
  Sim_rt.run engine ~until:horizon;
  outcome deliveries parts obs

let run_domains ~seed ~n_domains =
  let obs = Plwg_obs.create () in
  let backend = Domains_rt.create ~obs ~model:Model.default ~n_domains ~seed ~n_nodes:n_app () in
  let deliveries, parts = scenario (Domains_rt.rt backend) in
  Domains_rt.run backend ~until:horizon;
  outcome deliveries parts obs

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let pp_seqs seqs = String.concat "," (List.map string_of_int seqs)
let pp_members ms = "[" ^ String.concat ";" (List.map (Printf.sprintf "n%d") ms) ^ "]"

(* Mismatches of [candidate] against [oracle] under the commutativity
   relation; empty means equivalent. *)
let diff ~oracle ~candidate =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let chan_key c = Printf.sprintf "n%d <- %s from n%d" c.rcv c.group c.sender in
  let keys =
    List.sort_uniq String.compare (List.map chan_key oracle.channels @ List.map chan_key candidate.channels)
  in
  let find cs k = List.find_opt (fun c -> String.equal (chan_key c) k) cs in
  List.iter
    (fun k ->
      match (find oracle.channels k, find candidate.channels k) with
      | Some o, Some c ->
          if not (List.equal Int.equal o.seqs c.seqs) then
            err "channel %s: oracle delivered #%s, candidate #%s" k (pp_seqs o.seqs) (pp_seqs c.seqs)
      | Some _, None -> err "channel %s: missing from candidate" k
      | None, Some _ -> err "channel %s: absent in oracle" k
      | None, None -> ())
    keys;
  List.iter2
    (fun (on, og, om) (cn, cg, cm) ->
      if on <> cn || not (String.equal og cg) then err "view table shape differs at n%d/%s vs n%d/%s" on og cn cg
      else if not (List.equal Int.equal om cm) then
        err "final view of %s at n%d: oracle %s, candidate %s" og on (pp_members om) (pp_members cm))
    oracle.views candidate.views;
  List.rev !errs

(* Full conformance protocol: sim determinism (byte-identical trace),
   domains self-determinism, domains vs sim equivalence, and the
   virtual-synchrony oracle on both backends. *)
let check ~seed ~n_domains =
  let sim_a = run_sim ~seed in
  let sim_b = run_sim ~seed in
  let errs = ref [] in
  if not (String.equal sim_a.trace sim_b.trace) then
    errs := "sim trace is not byte-identical across two runs of the same seed" :: !errs;
  let dom_a = run_domains ~seed ~n_domains in
  let dom_b = run_domains ~seed ~n_domains in
  (match diff ~oracle:dom_a ~candidate:dom_b with
  | [] -> ()
  | ds ->
      errs :=
        Printf.sprintf "domains backend not deterministic at n_domains=%d:" n_domains
        :: List.map (fun d -> "  " ^ d) ds
        @ !errs);
  if not (String.equal dom_a.trace dom_b.trace) then
    errs := Printf.sprintf "domains trace not reproducible at n_domains=%d" n_domains :: !errs;
  (match diff ~oracle:sim_a ~candidate:dom_a with
  | [] -> ()
  | ds -> errs := ("domains backend diverges from the sim oracle:" :: List.map (fun d -> "  " ^ d) ds) @ !errs);
  List.iter
    (fun (name, o) ->
      if not (List.is_empty o.violations) then
        errs :=
          (Printf.sprintf "%s run violates virtual synchrony:" name :: List.map (fun v -> "  " ^ v) o.violations)
          @ !errs)
    [ ("sim", sim_a); (Printf.sprintf "domains (n_domains=%d)" n_domains, dom_a) ];
  (* sanity: the scenario must actually exercise the stack *)
  if List.length sim_a.channels = 0 then errs := "scenario delivered no application traffic on the sim" :: !errs;
  match List.rev !errs with [] -> Ok () | es -> Error es
