(* The benchmark's workloads, one repetition at a time, each on a fresh
   stack driven through the public [Plwg.Service] API.

   Common shape: app nodes form disjoint sets of four (set s is
   {4s .. 4s+3}); each set hosts [per_set] LWGs whose membership is the
   whole set.  The set's first node creates them, then the other three
   join (the Figure-2 recipe, scaled up; see [create_groups]).  Load is open
   loop: each LWG's first member sends [Bench seq] on a fixed
   simulated-time schedule with staggered starts, so the generator never
   runs late and latency is timed from the scheduled send.  The network
   is [Model.default].

   An application delivery is one [on_data] upcall at one member; every
   rate and ratio is per application delivery.  The bookkeeping lives in
   arrays allocated before the measured window, so the untraced run
   allocates nothing per message and [allocs_per_delivery] measures only
   the stack. *)

open Plwg_sim
open Plwg_vsync.Types
module Rt = Plwg_runtime.Rt
module Sim_rt = Plwg_runtime.Sim_rt
module Domains_rt = Plwg_runtime_domains.Domains_rt
module Transport = Plwg_transport.Transport
module Hwg = Plwg_vsync.Hwg
module Service = Plwg.Service
module Server = Plwg_naming.Server
module Db = Plwg_naming.Db

type Payload.t += Bench of int

type backend_kind = Sim | Domains

type spec = {
  name : string;
  backend : backend_kind;
  mode : Service.mode;  (** Direct or Dynamic; Dynamic adds two naming replicas *)
  sets : int;
  per_set : int;  (** LWGs per set *)
  rate_hz : int;  (** sends per second per LWG *)
  window : Time.span;  (** steady load measured per repetition (partition_heal: its ladder rows) *)
  cycles : int;  (** partition/heal cycles per repetition; 0 for steady load *)
  instances : int;  (** seeded instances a run cycles through *)
}

let set_size = 4
let n_domains = 2
let create_stagger = Time.ms 50
let gid_base = 1_000_001

(* After the last scheduled send: fault-free, every delivery lands well
   inside it (latencies are a few ms). *)
let tail = Time.ms 100
let partition_span = Time.sec 3
let reconcile_deadline = Time.sec 10
let give_up = Time.sec 60
let settle = Time.sec 2
(* The Figure-1 rules run on the paper's slow cadence (it uses a
   minute), as the Figure-2 harness does: at the 1 s default they race
   group creation, and the interference rule moves LWGs whose joiners are
   still being admitted onto fresh HWGs, splitting some of them for good. *)
let config = { Service.default_config with Service.policy_period = Time.sec 8 }
let policy_period = config.Service.policy_period
let n_app spec = set_size * spec.sets
let n_lwgs spec = spec.sets * spec.per_set
let replicas spec = match spec.mode with Service.Dynamic -> 2 | Service.Direct | Service.Static _ -> 0
let first_member spec g = set_size * (g / spec.per_set)
let gid_of spec g = { Gid.seq = gid_base + g; origin = first_member spec g }
let period spec = Time.us (1_000_000 / spec.rate_hz)
let payloads cap = Array.init cap (fun i -> Bench i)

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)
(* ------------------------------------------------------------------ *)

type backend = {
  raw : Rt.t;  (** the backend itself: the bench's own timers go here *)
  rt : Rt.t;  (** what the stack is wired on: [raw], or the shim around it *)
  shim : Shim.t option;
  run : Time.span -> unit;
  now : unit -> Time.t;  (** between runs, from the main domain *)
  sent : unit -> int;
  delivered : unit -> int;
  in_flight : unit -> int;
  engine : Sim_rt.t option;  (** fault injection, sim only *)
}

let backend spec ~seed ~n_nodes ~traced =
  let b =
    match spec.backend with
    | Sim ->
        let e = Sim_rt.create ~model:Model.default ~seed ~n_nodes () in
        {
          raw = Sim_rt.rt e;
          rt = Sim_rt.rt e;
          shim = None;
          run = Sim_rt.run_span e;
          now = (fun () -> Sim_rt.now e);
          sent = (fun () -> (Sim_rt.stats e).Sim_rt.sent);
          delivered = (fun () -> (Sim_rt.stats e).Sim_rt.delivered);
          in_flight = (fun () -> Sim_rt.in_flight e);
          engine = Some e;
        }
    | Domains ->
        let d = Domains_rt.create ~model:Model.default ~n_domains ~seed ~n_nodes () in
        {
          raw = Domains_rt.rt d;
          rt = Domains_rt.rt d;
          shim = None;
          run = Domains_rt.run_span d;
          now = (fun () -> Domains_rt.now d);
          sent = (fun () -> (Domains_rt.stats d).Domains_rt.sent);
          delivered = (fun () -> (Domains_rt.stats d).Domains_rt.delivered);
          in_flight = (fun () -> Domains_rt.in_flight d);
          engine = None;
        }
  in
  if traced then
    let n_domains = match spec.backend with Sim -> 1 | Domains -> n_domains in
    let s = Shim.create ~n_domains b.raw in
    { b with rt = Shim.rt s; shim = Some s }
  else b

(* ------------------------------------------------------------------ *)
(* Delivery ledger                                                     *)
(* ------------------------------------------------------------------ *)

(* Per (LWG, member) slot, [g * 4 + k].  A slot is written only by its
   member's executor, so the arrays need no locks on either backend. *)
type ledger = {
  cap : int;  (** sends per LWG the arrays hold *)
  times : int array;  (** [slot * cap + seq]: delivery time, -1 until delivered *)
  got : int array;  (** deliveries *)
  next : int array;  (** one past the highest seq delivered *)
  view_at : int array;  (** latest view install *)
  full_at : int array;  (** first install of a view holding the whole set *)
  bad : int Atomic.t;  (** duplicate or out-of-order deliveries *)
}

let ledger spec ~cap =
  let slots = n_lwgs spec * set_size in
  {
    cap;
    times = Array.make (slots * cap) (-1);
    got = Array.make slots 0;
    next = Array.make slots 0;
    view_at = Array.make slots (-1);
    full_at = Array.make slots (-1);
    bad = Atomic.make 0;
  }

let slot spec g node = (g * set_size) + node - first_member spec g

(* [gapless]: fault-free workloads must deliver every seq, in order,
   exactly once; under partitions a member may miss seqs but never sees
   one twice or out of order. *)
let callbacks spec l ~gapless raw node =
  let lwg gid = gid.Gid.seq - gid_base in
  {
    Service.on_view =
      (fun gid view ->
        let s = slot spec (lwg gid) node in
        let now = Rt.now raw in
        l.view_at.(s) <- now;
        if l.full_at.(s) < 0 && List.length view.View.members = set_size then l.full_at.(s) <- now);
    on_data =
      (fun gid ~src:_ payload ->
        match payload with
        | Bench seq ->
            let s = slot spec (lwg gid) node in
            let next = l.next.(s) in
            if seq < next || (gapless && seq > next) then Atomic.incr l.bad
            else begin
              l.next.(s) <- seq + 1;
              l.got.(s) <- l.got.(s) + 1;
              l.times.((s * l.cap) + seq) <- Rt.now raw
            end
        | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Open-loop senders                                                   *)
(* ------------------------------------------------------------------ *)

type senders = {
  start : Time.t array;  (** scheduled time of seq 0, per LWG *)
  count : int array;  (** sends issued, per LWG *)
  active : bool ref;  (** cleared between runs to stop every sender *)
  call_ns : int array;  (** traced: wall ns of each send call, [g * limit + seq] *)
}

let start_senders spec b ~first ~limit ~timed send =
  let n = n_lwgs spec and period = period spec in
  let now = b.now () in
  let start = Array.init n (fun g -> first + (g * period / n)) in
  let count = Array.make n 0 in
  let active = ref true in
  let call_ns = if timed then Array.make (n * limit) 0 else [||] in
  for g = 0 to n - 1 do
    let node = first_member spec g in
    let rec fire () =
      let seq = count.(g) in
      if !active && seq < limit then begin
        if timed then begin
          let t0 = Shim.clock_ns () in
          send g seq;
          call_ns.((g * limit) + seq) <- Shim.clock_ns () - t0
        end
        else send g seq;
        count.(g) <- seq + 1;
        Rt.after_node_ b.raw node period fire
      end
    in
    Rt.after_node_ b.raw node (start.(g) - now) fire
  done;
  { start; count; active; call_ns }

(* Latency of every send whose schedule [keep] selects, from its
   scheduled time to its delivery at the last member; an undelivered
   send reads [max_int].  Returns the sorted samples and the number of
   undelivered sends. *)
let latencies spec l s ~keep =
  let period = period spec in
  let lat = Array.make (Array.fold_left ( + ) 0 s.count) 0 in
  let m = ref 0 and missing = ref 0 in
  Array.iteri
    (fun g sent ->
      for seq = 0 to sent - 1 do
        let sched = s.start.(g) + (seq * period) in
        if keep sched then begin
          let worst = ref 0 and lost = ref false in
          for k = 0 to set_size - 1 do
            let t = l.times.((((g * set_size) + k) * l.cap) + seq) in
            if t < 0 then lost := true else worst := max !worst t
          done;
          if !lost then incr missing;
          lat.(!m) <- (if !lost then max_int else !worst - sched);
          incr m
        end
      done)
    s.count;
  (Stats.sort_prefix lat !m, !missing)

(* ------------------------------------------------------------------ *)
(* Group formation                                                     *)
(* ------------------------------------------------------------------ *)

(* Every member of LWG [g] holds the same view of the whole set and maps
   the LWG onto the same carrier. *)
let formed spec ~view ~carrier g =
  let gid = gid_of spec g and m0 = first_member spec g in
  match (view m0 gid, carrier m0 gid) with
  | Some v, Some h when List.length v.View.members = set_size ->
      let agrees node =
        match (view node gid, carrier node gid) with
        | Some v', Some h' -> View_id.equal v'.View.id v.View.id && Gid.equal h' h
        | _, _ -> false
      in
      List.for_all agrees (List.init (set_size - 1) (fun k -> m0 + k + 1))
  | _, _ -> false

let all_formed spec ~view ~carrier = List.for_all (formed spec ~view ~carrier) (List.init (n_lwgs spec) Fun.id)

let await spec b ~what ready =
  let deadline = b.now () + Time.sec 120 in
  while (not (ready ())) && b.now () < deadline do
    b.run (Time.ms 100)
  done;
  if not (ready ()) then failwith (Printf.sprintf "%s: %s not reached within 120 simulated s" spec.name what)

(* The Figure-2 recipe.  Each set's first LWG is created alone: it gives
   the creator a carrier, onto which the optimistic initial mapping puts
   the later ones, instead of each minting its own for the share rule to
   collapse.  The rest follow 50 ms apart; once [created gs] holds for
   them, the other three members join each LWG in turn, 50 ms apart.
   Joining every LWG of a carrier at once stalls the creator's flushes
   until joiners give up and found views of their own; the resulting
   churn leaves state (view ancestries, naming entries) that makes every
   later message dearer by an amount that varies with the seed.  Returns
   the instant each LWG's joins are issued. *)
let create_groups spec b ~join ~created =
  let firsts, rest = List.partition (fun g -> g mod spec.per_set = 0) (List.init (n_lwgs spec) Fun.id) in
  let create g delay = Rt.after_node_ b.raw (first_member spec g) delay (fun () -> join (first_member spec g) g) in
  List.iter (fun g -> create g 0) firsts;
  await spec b ~what:"carrier creation" (created firsts);
  List.iter (fun g -> create g (create_stagger * ((g mod spec.per_set) - 1))) rest;
  b.run (create_stagger * (spec.per_set - 1));
  await spec b ~what:"group creation" (created rest);
  let now = b.now () in
  Array.init (n_lwgs spec) (fun g ->
      let delay = Time.ms 1 + (create_stagger * (g mod spec.per_set)) in
      for k = 1 to set_size - 1 do
        let node = first_member spec g + k in
        Rt.after_node_ b.raw node delay (fun () -> join node g)
      done;
      now + delay)

(* Form every LWG.  In Dynamic mode each phase also waits until each
   set's LWGs share one carrier, no switch happened for two policy
   periods and every naming replica knows the groups: joiners that
   resolve a stale or missing mapping found a concurrent view that never
   merges back.  Returns each LWG's convergence time: from its joins to
   the last member's first view of the whole set. *)
let form spec b svcs servers l =
  let view node gid = Service.view_of svcs.(node) gid and carrier node gid = Service.mapping_of svcs.(node) gid in
  let lwgs = List.init (n_lwgs spec) Fun.id in
  let dynamic = match spec.mode with Service.Dynamic -> true | Service.Direct | Service.Static _ -> false in
  let consolidated gs =
    List.for_all
      (fun g ->
        let m0 = first_member spec g in
        Option.equal Gid.equal (carrier m0 (gid_of spec g)) (carrier m0 (gid_of spec (g - (g mod spec.per_set)))))
      gs
  in
  let switches () = Array.fold_left (fun acc svc -> acc + Service.switch_count svc) 0 svcs in
  let last = ref (switches ()) and since = ref (b.now ()) in
  let settled gs ready () =
    let s = switches () in
    if s <> !last then begin
      last := s;
      since := b.now ()
    end;
    ready () && ((not dynamic) || (consolidated gs && b.now () - !since >= 2 * policy_period))
  in
  let known g = List.for_all (fun r -> not (List.is_empty (Db.read (Server.db r) (gid_of spec g)))) servers in
  let created gs =
    settled gs (fun () ->
        List.for_all (fun g -> Option.is_some (view (first_member spec g) (gid_of spec g)) && known g) gs)
  in
  let join_at = create_groups spec b ~join:(fun node g -> Service.join svcs.(node) (gid_of spec g)) ~created in
  await spec b ~what:"group formation" (settled lwgs (fun () -> all_formed spec ~view ~carrier));
  Array.init (n_lwgs spec) (fun g ->
      let worst = ref 0 in
      for k = 0 to set_size - 1 do
        worst := max !worst (l.full_at.((g * set_size) + k) - join_at.(g))
      done;
      !worst)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type window = {
  wall_ns : int;
  sim : Time.span;
  wire : int;  (** runtime sends *)
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

(* [excluded] returns wall ns spent inside [f] on bookkeeping that is
   not the system's work (heap census in the traced run). *)
let measure ?(excluded = fun () -> 0) b f =
  (* OCaml 5 folds a domain's allocation into [Gc.quick_stat] only at its
     minor collections (and when it exits, as the backend's workers do
     after every run): force one on the main domain at both ends so the
     counts are exact. *)
  let gc_stat () =
    Gc.minor ();
    Gc.quick_stat ()
  in
  let sim0 = b.now () and sent0 = b.sent () in
  let q0 = gc_stat () in
  let t0 = Shim.clock_ns () in
  f ();
  let t1 = Shim.clock_ns () in
  let q1 = gc_stat () in
  {
    wall_ns = t1 - t0 - excluded ();
    sim = b.now () - sim0;
    wire = b.sent () - sent0;
    minor_words = q1.Gc.minor_words -. q0.Gc.minor_words;
    promoted_words = q1.Gc.promoted_words -. q0.Gc.promoted_words;
    minor_gcs = q1.Gc.minor_collections - q0.Gc.minor_collections - 1;
    major_gcs = q1.Gc.major_collections - q0.Gc.major_collections;
  }

(* Fault-free, the engine delivers everything it accepts: step to an
   instant with nothing in flight and compare its counters. *)
let engine_check b =
  let steps = ref 0 in
  while b.in_flight () > 0 && !steps < 20_000 do
    incr steps;
    b.run (Time.us 100)
  done;
  if b.in_flight () > 0 then [ Printf.sprintf "engine never drained (%d in flight)" (b.in_flight ()) ]
  else if b.sent () <> b.delivered () then
    [ Printf.sprintf "engine sent %d messages but delivered %d" (b.sent ()) (b.delivered ()) ]
  else []

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)
(* ------------------------------------------------------------------ *)

(* A fresh repetition: collect the previous one's garbage and time the
   set-up from here. *)
let fresh () =
  Gc.compact ();
  Shim.clock_ns ()

type rep = {
  setup_s : float;
  window : window;
  deliveries : int;
  latency_us : int array;  (** sorted samples: scheduled send to delivery at the last member *)
  converge_us : int array;  (** sorted samples: membership event to the LWG's one complete view *)
  attempted : int;
  failed : int;
  violations : string list;
  layers : (string * float) list;  (** per-layer values valid with or without the shim *)
  shim_layers : (string * float) list;  (** traced repetitions only *)
}

let sum a = Array.fold_left ( + ) 0 a

let peaks transport svcs ~n_nodes =
  let unacked = ref 0 and store = ref 0 in
  for node = 0 to n_nodes - 1 do
    unacked := max !unacked (Transport.in_flight_peak (Transport.endpoint transport node))
  done;
  Array.iter
    (fun svc ->
      let hwg = Service.hwg_service svc in
      List.iter (fun gid -> store := max !store (Hwg.store_peak hwg gid)) (Hwg.groups hwg))
    svcs;
  [ ("transport.peak_unacked", float_of_int !unacked); ("hwg.peak_store", float_of_int !store) ]

let gc_layers w ~deliveries =
  [
    ("gc.minor_collections", float_of_int w.minor_gcs);
    ("gc.major_collections", float_of_int w.major_gcs);
    ("gc.promoted_words_per_delivery", w.promoted_words /. float_of_int (max 1 deliveries));
  ]

let per x d = if d = 0 then 0. else x /. float_of_int d

(* Layer metrics read from the shim after the measured window. *)
let shim_layers shim (w : window) ~deliveries ~senders ~n_domains =
  let t = Shim.totals shim in
  let d = deliveries in
  let limit = Array.length senders.call_ns / Array.length senders.count in
  let call_ns =
    Array.concat (Array.to_list (Array.mapi (fun g n -> Array.sub senders.call_ns (g * limit) n) senders.count))
  in
  let send_ns = sum call_ns in
  let busy = t.Shim.recv_ns + t.Shim.timer_ns in
  let fam f = Shim.families.(f) in
  let sends = sum t.Shim.sent in
  let c name = float_of_int (Shim.counter shim name) in
  let pct name f = match Shim.summary shim name with Some s -> f s | None -> 0. in
  let sorted_calls = Stats.sort_prefix call_ns (Array.length call_ns) in
  let windows = float_of_int w.sim /. float_of_int Model.default.Model.link_base in
  [
    ("runtime.self_ns_per_delivery", per (float_of_int ((w.wall_ns * n_domains) - busy - send_ns)) d);
    ("recv.ns_per_delivery", per (float_of_int t.Shim.recv_ns) d);
    ("timer.ns_per_delivery", per (float_of_int t.Shim.timer_ns) d);
    ("send.ns_per_delivery", per (float_of_int send_ns) d);
    ("lwg.send_call_ns.p50", Stats.quantile sorted_calls 0.5);
  ]
  @ List.init (Array.length Shim.families) (fun f ->
        (Printf.sprintf "wire.%s.per_delivery" (fam f), per (float_of_int t.Shim.sent.(f)) d))
  @ List.init (Array.length Shim.families) (fun f ->
        (Printf.sprintf "recv.%s.ns_per_msg" (fam f), per (float_of_int t.Shim.recv_ns_by.(f)) t.Shim.recv_n.(f)))
  @ List.map
      (fun name -> (name, c name))
      [
        "transport.retransmits";
        "transport.conn_resets";
        "hwg.flushes_started";
        "hwg.views_installed";
        "lwg.switches";
        "lwg.merges";
        "lwg.mapping_reconciliations";
        "lwg.local_discoveries";
        "policy.share";
        "policy.interference";
        "policy.shrink";
        "ns.requests";
        "ns.give_ups";
        "ns.multiple_mappings";
        "ns.gossip_rounds";
        "detector.transitions";
      ]
  @ [
      ("hwg.flush_us.p50", pct "hwg.flush_us" (fun s -> s.Plwg_obs.Metrics.p50));
      ("hwg.flush_us.p99", pct "hwg.flush_us" (fun s -> s.Plwg_obs.Metrics.p99));
      ("ns.rtt_us.p50", pct "ns.rtt_us" (fun s -> s.Plwg_obs.Metrics.p50));
      ("ns.rtt_us.p99", pct "ns.rtt_us" (fun s -> s.Plwg_obs.Metrics.p99));
      ("ns.retry_ratio", per (c "ns.retries") (Shim.counter shim "ns.requests"));
      ("domains.busy_frac", per (float_of_int busy) (w.wall_ns * n_domains));
      ( "domains.busy_frac_min",
        per (float_of_int (Array.fold_left min max_int t.Shim.busy_by_domain)) w.wall_ns );
      ("domains.cross_frac", per (float_of_int t.Shim.cross) sends);
      ("domains.events_per_window", float_of_int (sends + t.Shim.timer_fires) /. windows);
    ]

let steady_rep spec ~seed ~traced =
  let t0 = fresh () in
  let n_app = n_app spec and n = n_lwgs spec in
  let n_nodes = n_app + replicas spec in
  let b = backend spec ~seed ~n_nodes ~traced in
  let n_seq = spec.window / period spec in
  let l = ledger spec ~cap:n_seq in
  let transport, svcs, servers =
    Wire.service_stack ~config ~mode:spec.mode ~n_app ~callbacks:(callbacks spec l ~gapless:true b.raw) b.rt
  in
  let conv = form spec b svcs servers l in
  let gids = Array.init n (gid_of spec) and body = payloads n_seq in
  let senders =
    start_senders spec b ~first:(b.now () + Time.ms 1) ~limit:n_seq ~timed:traced (fun g seq ->
        Service.send svcs.(first_member spec g) gids.(g) body.(seq))
  in
  let setup_ns = Shim.clock_ns () - t0 in
  Option.iter Shim.reset_window b.shim;
  let w = measure b (fun () -> b.run (spec.window + Time.ms 1 + tail)) in
  let deliveries = sum l.got in
  let lat, missing = latencies spec l senders ~keep:(fun _ -> true) in
  let bad = Atomic.get l.bad in
  let violations =
    (if bad > 0 then [ Printf.sprintf "%d duplicate or out-of-order deliveries" bad ] else []) @ engine_check b
  in
  {
    setup_s = float_of_int setup_ns /. 1e9;
    window = w;
    deliveries;
    latency_us = lat;
    converge_us = Stats.sort_prefix conv n;
    attempted = n * n_seq;
    failed = missing;
    violations;
    layers = peaks transport svcs ~n_nodes @ gc_layers w ~deliveries;
    shim_layers =
      (match b.shim with
      | Some shim ->
          shim_layers shim w ~deliveries ~senders
            ~n_domains:(match spec.backend with Sim -> 1 | Domains -> n_domains)
      | None -> []);
  }

(* partition_heal: repeated partition/heal cycles under 10 Hz load.  Each
   cycle cuts every set in half for 3 s ({4s, 4s+1} and the first
   replica on one side, {4s+2, 4s+3} and the second on the other), so
   every LWG and carrier splits in two and both naming replicas record
   concurrent views.  At the heal the detector rediscovers the peers,
   each carrier merges (HWG flush with two predecessor views), local
   discovery finds the concurrent LWG views and merge-views unites them;
   the replicas' databases merge and retire the superseded entries.  The
   bench steps 1 ms at a time until every LWG is merged, then lets the
   system settle for 2 s; sends scheduled while it settles are the
   latency samples.  Both are operations that can fail: a reconcile that
   has not merged within 10 s of the heal, and a settle-window send that
   does not reach every member.  A failed one counts in [failed] and
   reads [max_int] (infinite) in its sample.

   The Figure-3 crossing (a coordinator moving LWGs to another HWG while
   partitioned, which adds naming MULTIPLE-MAPPINGS and the switch to
   every heal) is left out: with several LWGs per carrier it livelocks
   the current library.  The merge round finds the crossed LWG's single
   view fully present, installs nothing, so the view's cut-lineage latch
   never clears and the carrier re-flushes forever. *)
let partition_heal_rep spec ~seed ~traced =
  let t0 = fresh () in
  let n_app = n_app spec and n = n_lwgs spec in
  let n_nodes = n_app + replicas spec in
  let b = backend spec ~seed ~n_nodes ~traced in
  let engine = match b.engine with Some e -> e | None -> invalid_arg "partition_heal runs on the sim" in
  let worst_cycle = partition_span + give_up + partition_span + settle in
  let cap = spec.rate_hz * ((spec.cycles * worst_cycle / Time.sec 1) + 1) in
  let l = ledger spec ~cap in
  let transport, svcs, servers =
    Wire.service_stack ~config ~mode:spec.mode ~n_app ~callbacks:(callbacks spec l ~gapless:false b.raw) b.rt
  in
  let (_ : int array) = form spec b svcs servers l in
  let gids = Array.init n (gid_of spec) and body = payloads cap in
  let senders =
    start_senders spec b ~first:(b.now () + Time.ms 1) ~limit:cap ~timed:traced (fun g seq ->
        Service.send svcs.(first_member spec g) gids.(g) body.(seq))
  in
  let setup_ns = Shim.clock_ns () - t0 in
  Option.iter Shim.reset_window b.shim;
  let side upper replica =
    List.filter (fun node -> Bool.equal (node mod set_size >= set_size / 2) upper) (List.init n_app Fun.id)
    @ [ replica ]
  in
  let lower = side false n_app and upper = side true (n_app + 1) in
  let reconcile = Array.make (spec.cycles * n) max_int in
  let carriers_merged = ref [] and steady = ref [] in
  let cycle_ns = Array.make spec.cycles 0 and live = Array.make spec.cycles 0 in
  let census_ns = ref 0 and violations = ref [] in
  let view node gid = Service.view_of svcs.(node) gid and carrier node gid = Service.mapping_of svcs.(node) gid in
  let members g = List.init set_size (fun k -> first_member spec g + k) in
  (* Table-4 stage: every member's carrier view holds the whole set *)
  let carrier_merged g =
    List.for_all
      (fun node ->
        match carrier node gids.(g) with
        | Some h -> (
            match Hwg.view_of (Service.hwg_service svcs.(node)) h with
            | Some v -> List.for_all (fun m -> List.mem m v.View.members) (members g)
            | None -> false)
        | None -> false)
      (members g)
  in
  (* A stuck heal: at a few heals in ten thousand one member misses the
     carrier's merged install while the others install it with that
     member inside, so its change requests are ignored and the carrier
     stays split until the next membership change.  Its reconciles have
     failed by then; so that the next cycle starts from a merged system,
     the bench supplies that change, as an operator would, by cutting the
     stuck sets in half again. *)
  let repartitions = ref 0 in
  let nudge stuck =
    let cut =
      List.sort_uniq Int.compare (List.concat_map (fun g -> [ first_member spec g; first_member spec g + 1 ]) stuck)
    in
    Sim_rt.set_partition engine [ cut; List.filter (fun node -> not (List.mem node cut)) (List.init n_nodes Fun.id) ];
    b.run partition_span;
    Sim_rt.heal engine;
    incr repartitions
  in
  let counted = [ "lwg.local_discoveries"; "lwg.merges" ] in
  let counts () = match b.shim with Some s -> List.map (Shim.counter s) counted | None -> [] in
  let w =
    measure b ~excluded:(fun () -> !census_ns) (fun () ->
        for c = 0 to spec.cycles - 1 do
          let c0 = Shim.clock_ns () and before = counts () in
          Sim_rt.set_partition engine [ lower; upper ];
          b.run partition_span;
          Sim_rt.heal engine;
          let healed = b.now () in
          let pending = Array.make n true and left = ref n and stage = Array.make n (-1) in
          let last_heal = ref healed in
          while !left > 0 && b.now () - healed < give_up do
            if b.now () - !last_heal >= reconcile_deadline then begin
              nudge (List.filter (fun g -> pending.(g)) (List.init n Fun.id));
              last_heal := b.now ()
            end;
            b.run (Time.ms 1);
            for g = 0 to n - 1 do
              if pending.(g) then begin
                if stage.(g) < 0 && carrier_merged g then stage.(g) <- b.now () - healed;
                if formed spec ~view ~carrier g then begin
                  let worst = ref 0 in
                  for k = 0 to set_size - 1 do
                    worst := max !worst (l.view_at.((g * set_size) + k) - healed)
                  done;
                  if !worst < reconcile_deadline then reconcile.((c * n) + g) <- !worst;
                  pending.(g) <- false;
                  decr left
                end
              end
            done
          done;
          Array.iter (fun t -> if t >= 0 then carriers_merged := t :: !carriers_merged) stage;
          steady := (b.now (), b.now () + settle - tail) :: !steady;
          b.run settle;
          cycle_ns.(c) <- Shim.clock_ns () - c0;
          if traced then begin
            let s0 = Shim.clock_ns () in
            live.(c) <- (Gc.stat ()).Gc.live_words;
            census_ns := !census_ns + (Shim.clock_ns () - s0);
            List.iter2
              (fun name (a, z) -> if z <= a then violations := Printf.sprintf "cycle %d: no %s" c name :: !violations)
              counted
              (List.combine before (counts ()))
          end
        done;
        senders.active := false;
        b.run tail)
  in
  let in_steady t = List.exists (fun (a, z) -> t >= a && t < z) !steady in
  let lat, undelivered = latencies spec l senders ~keep:in_steady in
  let late = Array.fold_left (fun acc t -> if t = max_int then acc + 1 else acc) 0 reconcile in
  let deliveries = sum l.got in
  let bad = Atomic.get l.bad in
  if bad > 0 then violations := Printf.sprintf "%d duplicate or out-of-order deliveries" bad :: !violations;
  let quarter = max 1 (spec.cycles / 4) in
  let cycle_ms lo = Stats.median (List.init quarter (fun i -> float_of_int cycle_ns.(lo + i) /. 1e6)) in
  let merged = Array.of_list !carriers_merged in
  {
    setup_s = float_of_int setup_ns /. 1e9;
    window = w;
    deliveries;
    latency_us = lat;
    converge_us = Stats.sort_prefix reconcile (Array.length reconcile);
    attempted = Array.length reconcile + Array.length lat;
    failed = late + undelivered;
    violations = List.rev !violations;
    layers =
      peaks transport svcs ~n_nodes
      @ gc_layers w ~deliveries
      @ [
          ("reconcile.hwg_merged_ms.p50", Stats.quantile (Stats.sort_prefix merged (Array.length merged)) 0.5 /. 1000.);
          ("partition_heal.undelivered_sends", float_of_int undelivered);
          ("partition_heal.repartitions", float_of_int !repartitions);
          ("partition_heal.cycle_wall_ms.first_q", cycle_ms 0);
          ("partition_heal.cycle_wall_ms.last_q", cycle_ms (spec.cycles - quarter));
        ];
    shim_layers =
      (match b.shim with
      | Some shim ->
          shim_layers shim w ~deliveries ~senders ~n_domains:1
          @ [
              ( "partition_heal.live_words_per_cycle",
                float_of_int (live.(spec.cycles - 1) - live.(0)) /. float_of_int (max 1 (spec.cycles - 1)) );
            ]
      | None -> []);
  }

let rep spec ~seed ~traced =
  if spec.cycles > 0 then partition_heal_rep spec ~seed ~traced else steady_rep spec ~seed ~traced

(* ------------------------------------------------------------------ *)
(* Layer ladder                                                        *)
(* ------------------------------------------------------------------ *)

(* The workload's steady shape on progressively taller stacks: row 1 is
   [Rt.multicast] to the group with a [subscribe] handler, row 2
   [Transport.send] to each member, row 3 detector + [Hwg.send].
   Subtracting adjacent rows (and row 3 from the workload itself) prices
   each layer with no probe on the hot path.  Returns wall ns and minor
   words per delivery. *)
type row = Runtime_row | Transport_row | Hwg_row

let ladder_row spec ~seed row =
  Gc.compact ();
  let n_app = n_app spec and n = n_lwgs spec in
  let b = backend spec ~seed ~n_nodes:n_app ~traced:false in
  let n_seq = spec.window / period spec in
  let body = payloads n_seq and gids = Array.init n (gid_of spec) in
  let got = Array.make n_app 0 in
  let count node = function Bench _ -> got.(node) <- got.(node) + 1 | _ -> () in
  let dsts = Array.init n (fun g -> List.init set_size (fun k -> first_member spec g + k)) in
  let send =
    match row with
    | Runtime_row ->
        for node = 0 to n_app - 1 do
          Rt.subscribe b.raw node (fun ~src:_ p -> count node p)
        done;
        fun g seq -> Rt.multicast b.raw ~src:(first_member spec g) ~dsts:dsts.(g) body.(seq)
    | Transport_row ->
        let tr = Transport.create b.raw in
        let eps =
          Array.init n_app (fun node ->
              let ep = Transport.endpoint tr node in
              Transport.on_receive ep (fun ~src:_ p -> count node p);
              ep)
        in
        let rec to_all ep p = function
          | [] -> ()
          | dst :: rest ->
              Transport.send ep ~dst p;
              to_all ep p rest
        in
        fun g seq -> to_all eps.(first_member spec g) body.(seq) dsts.(g)
    | Hwg_row ->
        let hwgs =
          Wire.hwg_stack b.raw ~callbacks:(fun node ->
              { Hwg.no_callbacks with Hwg.on_data = (fun _ ~view_id:_ ~src:_ p -> count node p) })
        in
        let view node gid = Hwg.view_of hwgs.(node) gid in
        let (_ : Time.t array) =
          create_groups spec b
            ~join:(fun node g -> Hwg.join hwgs.(node) gids.(g))
            ~created:(fun gs () -> List.for_all (fun g -> Option.is_some (view (first_member spec g) gids.(g))) gs)
        in
        await spec b ~what:"HWG formation" (fun () ->
            all_formed spec ~view ~carrier:(fun _ gid -> Some gid));
        fun g seq -> Hwg.send hwgs.(first_member spec g) gids.(g) body.(seq)
  in
  let (_ : senders) = start_senders spec b ~first:(b.now () + Time.ms 1) ~limit:n_seq ~timed:false send in
  let w = measure b (fun () -> b.run (spec.window + Time.ms 1 + tail)) in
  let deliveries = sum got in
  if deliveries <> n * n_seq * set_size then
    failwith (Printf.sprintf "%s ladder: %d deliveries, expected %d" spec.name deliveries (n * n_seq * set_size));
  (per (float_of_int w.wall_ns) deliveries, per w.minor_words deliveries)
