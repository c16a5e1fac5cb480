(* Multi-domain backend: a conservative parallel discrete-event
   schedule over per-domain timing wheels.

   Ownership discipline (what makes the sharing story small):

   - a domain's wheel, clock, and the [busy_until] / [send_seq] /
     [rng] slots of the nodes it owns are touched only by that domain
     while workers run, and only by the main domain while quiescent;
     Domain.spawn/join and the barrier's atomics provide the
     happens-before edges between those phases;
   - the only mid-run cross-domain channel is the lanes: one growable
     buffer per (window parity, destination domain, source domain).
     During window k the source alone appends to its parity-(k mod 2)
     lanes; after the window's barrier the destination alone drains
     them at the start of window k+1, while the sources write the
     other parity.  No lock, and one barrier per window;
   - bookkeeping counters ([sent], [delivered], ...) are per domain and
     summed while quiescent; metrics and the trace sink are serialised
     (metrics under a mutex, traces via per-domain buffers merged after
     the join).

   The main domain runs domain 0 itself, so a run spawns
   [n_domains - 1] domains.  A worker whose handler raises records the
   first exception and poisons the barrier, so its peers leave at their
   next window boundary; [run] joins them all and re-raises.

   Determinism: each domain's event order is a function of its wheel
   content, wheel content changes only at deterministic points (its own
   execution, plus window-start lane drains sorted by
   [(arrival, src, seq)]), and every domain executes the same window
   sequence — so a run is reproducible for a fixed (seed, n_domains),
   though not bit-identical to the sim's single interleaving.  The
   conformance checker compares the two modulo per-node commutativity
   (see DESIGN.md, "Runtime layer"). *)

open Plwg_sim
module Rng = Plwg_util.Rng
module Wheel = Plwg_util.Wheel
module Rt = Plwg_runtime.Rt

type ev =
  | Ev_none
  | Ev_arrive of { src : Node_id.t; dst : Node_id.t; sent_at : Time.t; payload : Payload.t }
  | Ev_deliver of { src : Node_id.t; dst : Node_id.t; sent_at : Time.t; payload : Payload.t }
  | Ev_timer of { action : unit -> unit }

(* The lane of one window parity from one source domain to one
   destination domain, struct-of-arrays: entry [i] is [evs.(i)] (an
   [Ev_arrive]) with its drain key [(arrival, src, per-source seq)] at
   [keys.(3i .. 3i+2)].  Grown by doubling, never shrunk. *)
type lane = {
  mutable len : int
      [@shared_cell "lane: the source writes in window k, the destination drains after its barrier"];
  mutable keys : int array
      [@shared_cell "lane: the source writes in window k, the destination drains after its barrier"];
  mutable evs : ev array
      [@shared_cell "lane: the source writes in window k, the destination drains after its barrier"];
}

type dom = {
  idx : int;
  wheel : ev Wheel.t;
  mutable dnow : Time.t;
  mutable out : int;  (* parity of the lanes this domain writes in the current window *)
  mutable order : int array;  (* drain scratch: encoded lane entries, sorted in place *)
  mutable sent : int;  (* counters of the sends and deliveries this domain ran *)
  mutable delivered : int;
  mutable wire_dropped : int;
  mutable trace_buf : (Time.t * Plwg_obs.Event.t) list;  (* newest first;
      written only by the owner domain, read by main after join *)
}

(* Sense-reversing barrier: [phase] is the sense, bumped by the last
   arrival.  Waiters spin on it, then sleep on [bc].  [poisoned]
   releases every waiter for the rest of the run (a worker raised). *)
type barrier = {
  parties : int;
  spin : int;  (* [spin_limit], or 0 when the domains outnumber the cores *)
  waiting : int Atomic.t;  (* arrivals in the current phase *)
  phase : int Atomic.t;
  poisoned : bool Atomic.t;
  bm : Mutex.t;
  bc : Condition.t;
}

type t = {
  n_nodes : int;
  n_domains : int;
  model : Model.t;
  doms : dom array;
  lanes : lane array array array;  (* [lanes.(parity).(dst_domain).(src_domain)] *)
  mutable drain : int;  (* parity the next run's first window drains; main-owned *)
  node_rngs : Rng.t array;  (* slot [n] drawn only by [n]'s owner *)
  send_seq : int array;  (* slot [n] bumped only by [n]'s owner *)
  busy_until : Time.t array;  (* slot [n] touched only by [n]'s owner *)
  handlers : (src:Node_id.t -> Payload.t -> unit) list array;  (* wiring-time *)
  frozen : (src:Node_id.t -> Payload.t -> unit) array array;  (* frozen at run start *)
  obs : Plwg_obs.t option;
  metrics_mutex : Mutex.t;
  barrier : barrier;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;  (* first handler exception of a run *)
  mutable global_now : Time.t;
}

(* Which domain is executing, for [now]/[trace] called from inside a
   handler.  The slot is domain-local, set by each worker as it starts
   and cleared on the main domain once it has run domain 0; the handle
   is checked so two backends in one process cannot cross-talk. *)
let dls_ctx : (Obj.t * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let exec_idx t = match Domain.DLS.get dls_ctx with Some (o, i) when o == Obj.repr t -> i | _ -> -1

(* Rounds of [Domain.cpu_relax] a barrier waiter spins before it
   sleeps.  With a core per domain, spinning catches the peer's arrival
   without a futex round trip; with more domains than cores, each round
   is taken from a peer that cannot run, so waiters sleep at once.
   Both sides are measured in EXPERIMENTS.md, "Domains scheduler". *)
let spin_limit = 4096

let create ?obs ?(model = Model.default) ?(n_domains = 2) ~seed ~n_nodes () =
  if n_nodes <= 0 then invalid_arg "Domains_rt.create: n_nodes must be positive";
  if n_domains <= 0 then invalid_arg "Domains_rt.create: n_domains must be positive";
  if model.Model.link_base <= 0 then
    invalid_arg "Domains_rt.create: model.link_base must be positive (conservative lookahead window)";
  let n_domains = min n_domains n_nodes in
  let lane () = { len = 0; keys = [||]; evs = [||] } in
  {
    n_nodes;
    n_domains;
    model;
    doms =
      Array.init n_domains (fun idx ->
          {
            idx;
            wheel = Wheel.create ~dummy:Ev_none ();
            dnow = Time.zero;
            out = 0;
            order = [||];
            sent = 0;
            delivered = 0;
            wire_dropped = 0;
            trace_buf = [];
          });
    lanes = Array.init 2 (fun _ -> Array.init n_domains (fun _ -> Array.init n_domains (fun _ -> lane ())));
    drain = 0;
    node_rngs = Array.init n_nodes (fun node -> Rng.stream ~seed node);
    send_seq = Array.make n_nodes 0;
    busy_until = Array.make n_nodes Time.zero;
    handlers = Array.make n_nodes [];
    frozen = Array.make n_nodes [||];
    obs;
    metrics_mutex = Mutex.create ();
    barrier =
      {
        parties = n_domains;
        spin = (if n_domains <= Domain.recommended_domain_count () then spin_limit else 0);
        waiting = Atomic.make 0;
        phase = Atomic.make 0;
        poisoned = Atomic.make false;
        bm = Mutex.create ();
        bc = Condition.create ();
      };
    failure = Atomic.make None;
    global_now = Time.zero;
  }

let n_domains t = t.n_domains
let dom_of t node = t.doms.(node mod t.n_domains)
let now t =
  let i = exec_idx t in
  if i < 0 then t.global_now else t.doms.(i).dnow
let n_nodes t = t.n_nodes
let nodes t = List.init t.n_nodes Fun.id
let is_alive _ _ = true
let rng_node t node = t.node_rngs.(node)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let trace t make =
  match t.obs with
  | None -> ()
  | Some o -> (
      let i = exec_idx t in
      if i < 0 then Plwg_obs.Sink.emit o.Plwg_obs.sink ~at_us:t.global_now (make ())
      else
        let d = t.doms.(i) in
        d.trace_buf <- (d.dnow, make ()) :: d.trace_buf)

let count ?by t name =
  match t.obs with
  | None -> ()
  | Some o ->
      Mutex.lock t.metrics_mutex;
      Plwg_obs.Metrics.incr ?by o.Plwg_obs.metrics name;
      Mutex.unlock t.metrics_mutex

let observe t name v =
  match t.obs with
  | None -> ()
  | Some o ->
      Mutex.lock t.metrics_mutex;
      Plwg_obs.Metrics.observe o.Plwg_obs.metrics name v;
      Mutex.unlock t.metrics_mutex

(* Merge per-domain buffers into the sink, ordered by
   [(timestamp, domain)] — each buffer is already chronological, so a
   stable sort on that key yields one deterministic global order. *)
let flush_traces t =
  match t.obs with
  | None -> ()
  | Some o ->
      let tagged =
        Array.to_list t.doms
        |> List.concat_map (fun d ->
               let evs = List.rev d.trace_buf in
               d.trace_buf <- [];
               List.map (fun (at, e) -> (at, d.idx, e)) evs)
      in
      let ordered =
        List.stable_sort
          (fun (a, da, _) (b, db, _) ->
            let c = Time.compare a b in
            if c <> 0 then c else Int.compare da db)
          tagged
      in
      List.iter (fun (at, _, e) -> Plwg_obs.Sink.emit o.Plwg_obs.sink ~at_us:at e) ordered

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let subscribe t node handler = t.handlers.(node) <- handler :: t.handlers.(node)

let freeze_handlers t =
  for node = 0 to t.n_nodes - 1 do
    t.frozen.(node) <- Array.of_list (List.rev t.handlers.(node))
  done

let on_recover _ _ _ = () (* no fault injection: the transition never happens *)

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let after_node_ t node span action =
  Wheel.schedule (dom_of t node).wheel ~tick:(Time.add (now t) span) (Ev_timer { action })

let after_node t node span action =
  let d = dom_of t node in
  let h = Wheel.schedule_handle d.wheel ~tick:(Time.add (now t) span) (Ev_timer { action }) in
  fun () -> ignore (Wheel.cancel d.wheel h)

(* Without crashes the unguarded variant coincides with the guarded
   one; the node argument still routes it to the owning domain. *)
let at_node_ = after_node_

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

let lane_push l ~arrival ~src ~seq ev =
  let n = l.len in
  if n = Array.length l.evs then begin
    let cap = max 16 (2 * n) in
    let keys = Array.make (3 * cap) 0 and evs = Array.make cap Ev_none in
    Array.blit l.keys 0 keys 0 (3 * n);
    Array.blit l.evs 0 evs 0 n;
    l.keys <- keys;
    l.evs <- evs
  end;
  l.keys.(3 * n) <- arrival;
  l.keys.((3 * n) + 1) <- src;
  l.keys.((3 * n) + 2) <- seq;
  l.evs.(n) <- ev;
  l.len <- n + 1

(* [exec] is the executing domain, or [-1] on the quiescent main domain. *)
let route t ~exec ~arrival ~src ~dst ~sent_at payload =
  let dd = dst mod t.n_domains in
  let ev = Ev_arrive { src; dst; sent_at; payload } in
  if exec = dd then
    (* destination lives on the executing domain: straight into the
       local wheel *)
    Wheel.schedule t.doms.(dd).wheel ~tick:arrival ev
  else begin
    (* another domain's node, or a send from the quiescent main
       domain: the lane the destination drains at its next window
       start *)
    let parity = if exec < 0 then t.drain else t.doms.(exec).out in
    let from = if exec < 0 then src mod t.n_domains else exec in
    let seq = t.send_seq.(src) in
    t.send_seq.(src) <- seq + 1;
    lane_push t.lanes.(parity).(dd).(from) ~arrival ~src ~seq ev
  end

let send t ~src ~dst payload =
  let exec = exec_idx t in
  (* the quiescent main domain books its sends on the source's domain *)
  let d = t.doms.(if exec < 0 then src mod t.n_domains else exec) in
  let tnow = if exec < 0 then t.global_now else d.dnow in
  d.sent <- d.sent + 1;
  (match t.obs with
  | None -> ()
  | Some _ ->
      count t "engine.sent";
      trace t (fun () -> Plwg_obs.Event.Msg_sent { src; dst; kind = Payload.to_string payload }));
  if src = dst then route t ~exec ~arrival:tnow ~src ~dst ~sent_at:tnow payload
  else if t.model.Model.drop_prob > 0.0 && Rng.bernoulli t.node_rngs.(src) t.model.Model.drop_prob then begin
    d.wire_dropped <- d.wire_dropped + 1;
    trace t (fun () ->
        Plwg_obs.Event.Msg_dropped { src; dst; kind = Payload.to_string payload; reason = "wire" });
    count t "engine.dropped.wire"
  end
  else begin
    let jitter =
      if t.model.Model.link_jitter = 0 then 0 else Rng.int t.node_rngs.(src) (t.model.Model.link_jitter + 1)
    in
    let arrival = Time.add tnow (t.model.Model.link_base + jitter) in
    route t ~exec ~arrival ~src ~dst ~sent_at:tnow payload
  end

let multicast t ~src ~dsts payload = List.iter (fun dst -> send t ~src ~dst payload) dsts

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let released b phase = Atomic.get b.phase <> phase || Atomic.get b.poisoned

(* One barrier per window.  Returns [false] once the barrier is
   poisoned, releasing the waiters of the current phase and every later
   one.  A sleeper checks [released] under [bm] and the last arrival
   bumps [phase] before it broadcasts under [bm], so no wakeup is
   lost. *)
let barrier_wait b =
  let phase = Atomic.get b.phase in
  if Atomic.fetch_and_add b.waiting 1 = b.parties - 1 then begin
    Atomic.set b.waiting 0;
    Atomic.set b.phase (phase + 1);
    Mutex.lock b.bm;
    Condition.broadcast b.bc;
    Mutex.unlock b.bm
  end
  else begin
    let spins = ref b.spin in
    while !spins > 0 && not (released b phase) do
      Domain.cpu_relax ();
      decr spins
    done;
    if not (released b phase) then begin
      Mutex.lock b.bm;
      while not (released b phase) do
        Condition.wait b.bc b.bm
      done;
      Mutex.unlock b.bm
    end
  end;
  not (Atomic.get b.poisoned)

let poison b =
  Atomic.set b.poisoned true;
  Mutex.lock b.bm;
  Condition.broadcast b.bc;
  Mutex.unlock b.bm

(* Drain order: entry [e] of a column encodes lane [e mod n] (the source
   domain), position [e / n]; ordered by the key [(arrival, src, seq)],
   unique per message. *)
let entry_lt col n a b =
  let ka = col.(a mod n).keys and kb = col.(b mod n).keys in
  let ia = 3 * (a / n) and ib = 3 * (b / n) in
  if ka.(ia) <> kb.(ib) then ka.(ia) < kb.(ib)
  else if ka.(ia + 1) <> kb.(ib + 1) then ka.(ia + 1) < kb.(ib + 1)
  else ka.(ia + 2) < kb.(ib + 2)

(* Fold the lanes of [parity] addressed to [d] into its wheel, in key
   order, and reset them for their sources' next use.  The sort is an
   insertion sort on a reused buffer: each lane is already close to
   arrival order, and unlike [Array.sort] on a fresh array it allocates
   nothing (EXPERIMENTS.md, "Domains scheduler"). *)
let drain_lanes t d parity =
  let col = t.lanes.(parity).(d.idx) and n = t.n_domains in
  let total = Array.fold_left (fun acc l -> acc + l.len) 0 col in
  if total > 0 then begin
    if Array.length d.order < total then d.order <- Array.make (max 64 (2 * total)) 0;
    let a = d.order and k = ref 0 in
    for s = 0 to n - 1 do
      for i = 0 to col.(s).len - 1 do
        let e = (i * n) + s and j = ref (!k - 1) in
        while !j >= 0 && entry_lt col n e a.(!j) do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- e;
        incr k
      done
    done;
    for k = 0 to total - 1 do
      let e = a.(k) in
      let l = col.(e mod n) and i = e / n in
      Wheel.schedule d.wheel ~tick:l.keys.(3 * i) l.evs.(i);
      l.evs.(i) <- Ev_none
    done;
    Array.iter (fun l -> l.len <- 0) col
  end

let deliver t d ~src ~dst ~sent_at payload =
  d.delivered <- d.delivered + 1;
  (match t.obs with
  | None -> ()
  | Some _ ->
      count t "engine.delivered";
      trace t (fun () ->
          Plwg_obs.Event.Msg_delivered
            { src; dst; kind = Payload.to_string payload; latency_us = Time.diff d.dnow sent_at });
      observe t "engine.delivery_latency_us" (float_of_int (Time.diff d.dnow sent_at)));
  let handlers = t.frozen.(dst) in
  for i = 0 to Array.length handlers - 1 do
    handlers.(i) ~src payload
  done

let run_window t d ~window_end =
  let rec loop () =
    match Wheel.pop_or d.wheel ~limit:window_end ~none:Ev_none with
    | Ev_none -> d.dnow <- window_end
    | ev ->
        d.dnow <- Wheel.cur d.wheel;
        (match ev with
        | Ev_arrive { src; dst; sent_at; payload } ->
            (* destination CPU: FIFO service, [proc_time] per message,
               same queueing model as the sim *)
            let start = max d.dnow t.busy_until.(dst) in
            let finish = Time.add start t.model.Model.proc_time in
            t.busy_until.(dst) <- finish;
            Wheel.schedule d.wheel ~tick:finish (Ev_deliver { src; dst; sent_at; payload })
        | Ev_deliver { src; dst; sent_at; payload } -> deliver t d ~src ~dst ~sent_at payload
        | Ev_timer { action } -> action ()
        | Ev_none -> assert false);
        loop ()
  in
  loop ()

(* Windows from [start] to [until]; [parity] is the lanes the first
   window drains.  Each window drains the lanes written in the previous
   one, executes while writing the other parity, and ends at the one
   barrier.  Returns the parity the next run must drain.  A raise is
   recorded (the first one wins) and poisons the barrier, which ends
   every peer's run at its next window boundary. *)
let worker t d ~start ~until ~parity =
  let width = t.model.Model.link_base in
  let rec windows start parity =
    if Time.compare start until < 0 then begin
      drain_lanes t d parity;
      d.out <- 1 - parity;
      let window_end = min (Time.add start width) until in
      run_window t d ~window_end;
      if barrier_wait t.barrier then windows window_end (1 - parity) else 1 - parity
    end
    else parity
  in
  Domain.DLS.set dls_ctx (Some (Obj.repr t, d.idx));
  try windows start parity
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (Atomic.compare_and_set t.failure None (Some (e, bt)));
    poison t.barrier;
    parity

let run t ~until =
  if Time.compare until t.global_now < 0 then invalid_arg "Domains_rt.run: time cannot rewind";
  freeze_handlers t;
  (* a run that raised may have left the barrier mid-phase *)
  Atomic.set t.barrier.waiting 0;
  Atomic.set t.barrier.poisoned false;
  let start = t.global_now and parity = t.drain in
  let spawned =
    Array.init (t.n_domains - 1) (fun i ->
        Domain.spawn (fun () -> ignore (worker t t.doms.(i + 1) ~start ~until ~parity)))
  in
  let next = worker t t.doms.(0) ~start ~until ~parity in
  Domain.DLS.set dls_ctx None;
  Array.iter Domain.join spawned;
  flush_traces t;
  match Atomic.exchange t.failure None with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
      t.drain <- next;
      t.global_now <- until

let run_span t span = run t ~until:(Time.add t.global_now span)

type stats = { sent : int; delivered : int; wire_dropped : int }

let stats t =
  let sum f = Array.fold_left (fun acc d -> acc + f d) 0 t.doms in
  { sent = sum (fun d -> d.sent); delivered = sum (fun d -> d.delivered); wire_dropped = sum (fun d -> d.wire_dropped) }

let in_flight t =
  let s = stats t in
  s.sent - s.wire_dropped - s.delivered

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

module Backend : Rt.S with type t = t = struct
  type nonrec t = t

  let now = now
  let n_nodes = n_nodes
  let nodes = nodes
  let is_alive = is_alive
  let subscribe = subscribe
  let send = send
  let multicast = multicast
  let after_node = after_node
  let after_node_ = after_node_
  let at_node_ = at_node_
  let on_recover = on_recover
  let rng_node = rng_node
  let trace = trace
  let count = count
  let observe = observe
end

let rt t = Rt.Rt ((module Backend), t)
