(* The event queue is a hierarchical timing wheel keyed on sim-time
   ticks (see [Plwg_util.Wheel]): O(1) schedule/pop near the horizon,
   with pop order identical to the old binary heap's [(time, seq)]
   order — the wheel pops ticks nondecreasing and same-tick events in
   schedule-call order, so traces are byte-identical across the swap.

   Every event is a flat mutable record drawn from a freelist, and the
   wheel pools its own nodes, so the message path is allocation-free in
   steady state.  A timer is a pooled event of one of two kinds:
   [Ev_timer] fires unconditionally, [Ev_timer_node] is skipped while
   the node in [e_src] is down; beyond the caller's action closure, only
   a cancellable timer ([after], [after_node]) allocates, for the
   cancel closure over the wheel's generation-checked handle — a
   cancelled timer is structurally incapable of firing, and a stale
   cancel after the slot was reused is a no-op. *)

type cancel = unit -> unit

type stats = { sent : int; delivered : int; wire_dropped : int; unreachable_dropped : int }

(* Pooled event records.  [Ev_free] marks a record sitting in the
   freelist; its payload is poisoned so released messages are never
   observable through a stale reference. *)
type ev_kind = Ev_free | Ev_arrive | Ev_cpu | Ev_timer | Ev_timer_node

type Payload.t += Poison_released

type ev = {
  mutable k : ev_kind;
  mutable e_src : Node_id.t;
  mutable e_dst : Node_id.t;
  mutable e_sent_at : Time.t;
  mutable e_payload : Payload.t;
  mutable e_action : unit -> unit;
  mutable e_next : ev; (* freelist link, [ev_nil]-terminated *)
}

let action_none () = ()

let rec ev_nil =
  {
    k = Ev_free;
    e_src = 0;
    e_dst = 0;
    e_sent_at = Time.zero;
    e_payload = Poison_released;
    e_action = action_none;
    e_next = ev_nil;
  }
[@@shared_cell "freelist terminator: a sentinel whose fields are never read or written"]

(* The network state every executor reads.  The sim runs one executor
   over it; the domains backend runs one per domain over the same
   record.  Cross-executor discipline: the topology, the model, the
   handler tables and the recover hooks change only while every
   executor is quiescent (wiring, fault steps between runs); a per-node
   slot ([rngs], [busy_until], [frozen], [handlers_dirty]) is touched
   only by the executor that owns the node. *)
type net = {
  topology : Topology.t [@shared_cell "written only while every executor is quiescent"];
  mutable model : Model.t [@shared_cell "written only while every executor is quiescent"];
  n_execs : int;  (* executor [i] owns the nodes [n] with [n mod n_execs = i] *)
  rngs : Plwg_util.Rng.t array
      [@shared_cell "slot n drawn only on n's executor; the sim's single executor aliases one stream"];
  obs : Plwg_obs.t option
      [@shared_cell "a parallel executor buffers its traces and takes metrics_lock for metrics"];
  observing : bool; (* [obs <> None], hoisted so hot paths skip thunk allocation *)
  metrics_lock : Mutex.t;
  (* Handlers are registered newest-first into [handlers]; [dispatch]
     freezes each node's list into [frozen] (subscription order) the
     first time it fires after a registration, so steady-state delivery
     iterates an array with no per-message [List.rev] allocation. *)
  handlers : (src:Node_id.t -> Payload.t -> unit) list array
      [@shared_cell "written by subscribe only while every executor is quiescent"];
  frozen : (src:Node_id.t -> Payload.t -> unit) array array
      [@shared_cell "slot n rebuilt only on n's executor"];
  handlers_dirty : bool array [@shared_cell "slot n cleared only on n's executor"];
  (* Per-node callbacks fired on a dead -> alive transition, so layers
     whose timers were skipped while the node was crashed (transport
     retransmission, pending naming requests, an in-flight flush) can
     re-arm themselves.  Registered newest-first, fired in registration
     order. *)
  recover_hooks : (unit -> unit) list array
      [@shared_cell "registered and fired only while every executor is quiescent"];
  busy_until : Time.t array [@shared_cell "slot n touched only on n's executor"];
}

(* One executor: a clock, a wheel of pooled events, and the counters of
   the work it ran.  [remote] takes a message whose destination another
   executor owns; the sim's single executor never calls it. *)
type t = {
  net : net;
  idx : int;
  remote : tick:Time.t -> src:Node_id.t -> dst:Node_id.t -> sent_at:Time.t -> Payload.t -> unit;
  queue : ev Plwg_util.Wheel.t;
  mutable now : Time.t;
  mutable free_ev : ev;
  (* Set while the executor runs beside others: traces go to
     [trace_buf] (newest first) for a merge after the join, and metrics
     take [net.metrics_lock]. *)
  mutable parallel : bool;
  mutable trace_buf : (Time.t * Plwg_obs.Event.t) list;
  mutable sent : int;
  mutable delivered : int;
  mutable wire_dropped : int;
  mutable unreachable_dropped : int;
  (* Messages this executor accepted onto the wire or a CPU queue, less
     those it delivered or dropped.  Summed over executors, fault-free,
     [sent = delivered + in_flight] at all times, so a drained engine
     satisfies [sent = delivered] — the invariant the macro bench
     asserts. *)
  mutable in_flight : int;
}

let create_net ?obs ?(model = Model.default) ~n_execs ~n_nodes ~rng () =
  let topology = Topology.create ~n_nodes (* rejects [n_nodes <= 0] before any array is sized *) in
  {
    topology;
    model;
    n_execs;
    rngs = Array.init n_nodes rng;
    obs;
    observing = (match obs with None -> false | Some _ -> true);
    metrics_lock = Mutex.create ();
    handlers = Array.make n_nodes [];
    frozen = Array.make n_nodes [||];
    handlers_dirty = Array.make n_nodes false;
    recover_hooks = Array.make n_nodes [];
    busy_until = Array.make n_nodes Time.zero;
  }

let executor net ~idx ~remote =
  {
    net;
    idx;
    remote;
    queue = Plwg_util.Wheel.create ~dummy:ev_nil ();
    now = Time.zero;
    free_ev = ev_nil;
    parallel = false;
    trace_buf = [];
    sent = 0;
    delivered = 0;
    wire_dropped = 0;
    unreachable_dropped = 0;
    in_flight = 0;
  }

let no_remote ~tick:_ ~src:_ ~dst:_ ~sent_at:_ _ = invalid_arg "Engine: a single executor owns every node"

(* The sim scheduler is a single deterministic loop, so every node's
   draws can come from the engine's root stream: draw order is fixed by
   the schedule, and protocol draws interleaving with link-jitter draws
   is exactly the pre-runtime-layer behaviour (traces stay byte-stable).
   Concurrent executors cannot share one stream, so the domains backend
   builds its network with an indexed [Rng.stream] per node. *)
let create ?obs ?model ~seed ~n_nodes () =
  let root = Plwg_util.Rng.create ~seed in
  executor (create_net ?obs ?model ~n_execs:1 ~n_nodes ~rng:(fun _ -> root) ()) ~idx:0 ~remote:no_remote

let topology t = t.net.topology
let model t = t.net.model
let now t = t.now
let rng_node t node = t.net.rngs.(node)
let n_nodes t = Topology.n_nodes t.net.topology
let nodes t = Topology.all_nodes t.net.topology
let is_alive t node = Topology.is_alive t.net.topology node
let owns t node = t.net.n_execs = 1 || node mod t.net.n_execs = t.idx
let set_parallel t parallel = t.parallel <- parallel

let take_trace t =
  let entries = List.rev t.trace_buf in
  t.trace_buf <- [];
  entries

(* Instrumentation entry points.  The event is built inside a thunk so
   that when no sink is attached nothing is allocated or rendered; hot
   paths additionally pre-check [net.observing] so even the thunk
   closure is not allocated on a bare engine. *)
let trace t make =
  match t.net.obs with
  | None -> ()
  | Some o ->
      if t.parallel then t.trace_buf <- (t.now, make ()) :: t.trace_buf
      else Plwg_obs.Sink.emit o.Plwg_obs.sink ~at_us:t.now (make ())

let lock t = if t.parallel then Mutex.lock t.net.metrics_lock
let unlock t = if t.parallel then Mutex.unlock t.net.metrics_lock

let count ?by t name =
  match t.net.obs with
  | None -> ()
  | Some o ->
      lock t;
      Plwg_obs.Metrics.incr ?by o.Plwg_obs.metrics name;
      unlock t

let observe t name v =
  match t.net.obs with
  | None -> ()
  | Some o ->
      lock t;
      Plwg_obs.Metrics.observe o.Plwg_obs.metrics name v;
      unlock t

let alloc_ev t =
  let ev = t.free_ev in
  if ev != ev_nil then begin
    t.free_ev <- ev.e_next;
    ev.e_next <- ev_nil;
    ev
  end
  else
    ({
       k = Ev_free;
       e_src = 0;
       e_dst = 0;
       e_sent_at = Time.zero;
       e_payload = Poison_released;
       e_action = action_none;
       e_next = ev_nil;
     }
    [@alloc_ok "pool growth: cold path, amortised by the freelist"])
[@@zero_alloc_hot]

let release_ev t ev =
  ev.k <- Ev_free;
  ev.e_payload <- Poison_released;
  ev.e_action <- action_none;
  ev.e_next <- t.free_ev;
  t.free_ev <- ev
[@@zero_alloc_hot]

let subscribe t node handler =
  t.net.handlers.(node) <- handler :: t.net.handlers.(node);
  t.net.handlers_dirty.(node) <- true

let dispatch t ~sent_at ~src ~dst payload =
  if Topology.is_alive t.net.topology dst then begin
    t.delivered <- t.delivered + 1;
    if t.net.observing then begin
      count t "engine.delivered";
      (trace t (fun () ->
           Plwg_obs.Event.Msg_delivered
             { src; dst; kind = Payload.to_string payload; latency_us = Time.diff t.now sent_at })
      [@alloc_ok "guarded by t.net.observing"]);
      observe t "engine.delivery_latency_us" (float_of_int (Time.diff t.now sent_at))
    end;
    (if t.net.handlers_dirty.(dst) then begin
       t.net.frozen.(dst) <- Array.of_list (List.rev t.net.handlers.(dst));
       t.net.handlers_dirty.(dst) <- false
     end)
    [@alloc_ok "handler freeze: runs once per subscription change, not per message"];
    let handlers = t.net.frozen.(dst) in
    for i = 0 to Array.length handlers - 1 do
      handlers.(i) ~src payload
    done
  end
[@@zero_alloc_hot]

(* A message that reached [dst]'s network interface queues through its
   CPU: service is FIFO and each message costs [proc_time]. *)
let enqueue_cpu t ~sent_at ~src ~dst payload =
  let start = max t.now t.net.busy_until.(dst) in
  let finish = Time.add start t.net.model.Model.proc_time in
  t.net.busy_until.(dst) <- finish;
  let ev = alloc_ev t in
  ev.k <- Ev_cpu;
  ev.e_src <- src;
  ev.e_dst <- dst;
  ev.e_sent_at <- sent_at;
  ev.e_payload <- payload;
  Plwg_util.Wheel.schedule t.queue ~tick:finish ev
[@@zero_alloc_hot]

(* Per-reason drop metric names, interned once: [drop] sits on the
   partition fast path and must not build strings when no observer is
   attached. *)
let metric_dropped_unreachable = "engine.dropped.unreachable"
let metric_dropped_wire = "engine.dropped.wire"
let metric_dropped_cut = "engine.dropped.cut"

let drop t ~src ~dst ~reason ~metric payload =
  if t.net.observing then begin
    (trace t (fun () -> Plwg_obs.Event.Msg_dropped { src; dst; kind = Payload.to_string payload; reason })
    [@alloc_ok "guarded by t.net.observing"]);
    count t metric
  end
[@@zero_alloc_hot]

(* Schedule a message's arrival at [dst]'s network interface.  [send]
   calls it for the nodes this executor owns; the domains backend calls
   it for the messages other executors hand over through its lanes. *)
let arrive t ~tick ~src ~dst ~sent_at payload =
  let ev = alloc_ev t in
  ev.k <- Ev_arrive;
  ev.e_src <- src;
  ev.e_dst <- dst;
  ev.e_sent_at <- sent_at;
  ev.e_payload <- payload;
  Plwg_util.Wheel.schedule t.queue ~tick ev
[@@zero_alloc_hot]

let note_sent t =
  t.sent <- t.sent + 1;
  if t.net.observing then count t "engine.sent"
[@@zero_alloc_hot]

let send t ~src ~dst payload =
  let net = t.net in
  if Topology.is_alive net.topology src then
    if src = dst then begin
      note_sent t;
      t.in_flight <- t.in_flight + 1;
      enqueue_cpu t ~sent_at:t.now ~src ~dst payload
    end
    else if not (Topology.reachable net.topology src dst) then begin
      t.unreachable_dropped <- t.unreachable_dropped + 1;
      drop t ~src ~dst ~reason:"unreachable" ~metric:metric_dropped_unreachable payload
    end
    else if net.model.Model.drop_prob > 0.0 && Plwg_util.Rng.bernoulli net.rngs.(src) net.model.Model.drop_prob
    then begin
      note_sent t;
      t.wire_dropped <- t.wire_dropped + 1;
      drop t ~src ~dst ~reason:"wire" ~metric:metric_dropped_wire payload
    end
    else begin
      note_sent t;
      t.in_flight <- t.in_flight + 1;
      let jitter =
        if net.model.Model.link_jitter = 0 then 0 else Plwg_util.Rng.int net.rngs.(src) (net.model.Model.link_jitter + 1)
      in
      let arrival = Time.add t.now (net.model.Model.link_base + jitter) in
      if owns t dst then arrive t ~tick:arrival ~src ~dst ~sent_at:t.now payload
      else t.remote ~tick:arrival ~src ~dst ~sent_at:t.now payload
    end
[@@zero_alloc_hot]

(* Recursion, not [List.iter]: the iterator's closure would be
   allocated on every multicast. *)
let rec multicast t ~src ~dsts payload =
  match dsts with
  | [] -> ()
  | dst :: rest ->
      send t ~src ~dst payload;
      multicast t ~src ~dsts:rest payload
[@@zero_alloc_hot]

let timer_ev t kind node action =
  let ev = alloc_ev t in
  ev.k <- kind;
  ev.e_src <- node;
  ev.e_action <- action;
  ev

let cancellable t span ev =
  let h = Plwg_util.Wheel.schedule_handle t.queue ~tick:(Time.add t.now span) ev in
  fun () ->
    match Plwg_util.Wheel.cancel t.queue h with
    | Some ev -> release_ev t ev (* never fires: unlinked from the wheel before reuse *)
    | None -> () (* already fired, or a stale handle after reuse: no-op *)

let after t span action = cancellable t span (timer_ev t Ev_timer 0 action)
let after_node t node span action = cancellable t span (timer_ev t Ev_timer_node node action)

let after_node_ t node span action =
  Plwg_util.Wheel.schedule t.queue ~tick:(Time.add t.now span) (timer_ev t Ev_timer_node node action)

(* Node-affine timer without a liveness guard: the action runs on the
   node's executor even while the node is crashed ([Rt.every] builds
   protocol loops that survive a crash/recover cycle on it).  A
   parallel backend calls it on the executor that owns the node. *)
let at_node_ t node span action =
  Plwg_util.Wheel.schedule t.queue ~tick:(Time.add t.now span) (timer_ev t Ev_timer node action)

(* Crash/recover act only on an actual state transition: crashing a
   crashed node or recovering a live one is a silent no-op, so random
   fault schedules can issue steps without tracking liveness. *)
let crash t node =
  if Topology.is_alive t.net.topology node then begin
    Topology.crash t.net.topology node;
    t.net.busy_until.(node) <- t.now;
    count t "engine.crashes";
    trace t (fun () -> Plwg_obs.Event.Node_crashed { node })
  end

let on_recover t node hook = t.net.recover_hooks.(node) <- hook :: t.net.recover_hooks.(node)

let recover t node =
  if not (Topology.is_alive t.net.topology node) then begin
    Topology.recover t.net.topology node;
    count t "engine.recoveries";
    trace t (fun () -> Plwg_obs.Event.Node_recovered { node });
    List.iter (fun hook -> hook ()) (List.rev t.net.recover_hooks.(node))
  end

let set_model t model =
  t.net.model <- model;
  count t "engine.model_swaps";
  trace t (fun () ->
      Plwg_obs.Event.Model_changed
        {
          link_base_us = model.Model.link_base;
          link_jitter_us = model.Model.link_jitter;
          drop_ppm = int_of_float ((model.Model.drop_prob *. 1_000_000.) +. 0.5);
          proc_us = model.Model.proc_time;
        })

let set_partition t classes =
  Topology.set_partition t.net.topology classes;
  count t "engine.partitions";
  trace t (fun () -> Plwg_obs.Event.Partition_changed { classes })

let heal t =
  Topology.heal t.net.topology;
  count t "engine.heals";
  trace t (fun () -> Plwg_obs.Event.Healed)

type step =
  | Crash of Node_id.t
  | Recover of Node_id.t
  | Partition of Node_id.t list list
  | Heal
  | Set_model of Model.t

let validate_step ~n_nodes = function
  | Crash node | Recover node ->
      if node < 0 || node >= n_nodes then Error (Printf.sprintf "node %d out of range [0,%d)" node n_nodes) else Ok ()
  | Partition classes ->
      let seen = Array.make n_nodes false in
      let problem = ref None in
      List.iter
        (List.iter (fun node ->
             if !problem = None then
               if node < 0 || node >= n_nodes then
                 problem := Some (Printf.sprintf "partition: node %d out of range [0,%d)" node n_nodes)
               else if seen.(node) then problem := Some (Printf.sprintf "partition: node %d listed twice" node)
               else seen.(node) <- true))
        classes;
      (match !problem with
      | None ->
          Array.iteri (fun node covered -> if (not covered) && !problem = None then
              problem := Some (Printf.sprintf "partition: node %d not covered" node)) seen
      | Some _ -> ());
      (match !problem with None -> Ok () | Some msg -> Error msg)
  | Heal -> Ok ()
  | Set_model m ->
      if m.Model.drop_prob < 0.0 || m.Model.drop_prob > 1.0 then Error "set-model: drop_prob outside [0,1]"
      else if m.Model.link_base < 0 || m.Model.link_jitter < 0 || m.Model.proc_time < 0 then
        Error "set-model: negative time parameter"
      else Ok ()

(* The one entry point of faults.  Validation makes a malformed step
   from a generated or deserialized script fail with a script error
   rather than a topology invariant violation mid-run. *)
let apply_step t step =
  (match validate_step ~n_nodes:(n_nodes t) step with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.apply_step: " ^ msg));
  match step with
  | Crash node -> crash t node
  | Recover node -> recover t node
  | Partition classes -> set_partition t classes
  | Heal -> heal t
  | Set_model model -> set_model t model

(* Execute one popped event.  Fields are read into locals and the
   record released *before* running protocol code, so handlers that
   send (and thus allocate from the pool) cannot observe a live record
   they are about to recycle. *)
let exec t ev =
  match ev.k with
  | Ev_cpu ->
      let src = ev.e_src and dst = ev.e_dst and sent_at = ev.e_sent_at and payload = ev.e_payload in
      t.in_flight <- t.in_flight - 1;
      release_ev t ev;
      dispatch t ~sent_at ~src ~dst payload
  | Ev_arrive ->
      let src = ev.e_src and dst = ev.e_dst and sent_at = ev.e_sent_at and payload = ev.e_payload in
      release_ev t ev;
      (* A partition installed while the message was in flight cuts it. *)
      if Topology.reachable t.net.topology src dst then enqueue_cpu t ~sent_at ~src ~dst payload
      else begin
        t.in_flight <- t.in_flight - 1;
        t.unreachable_dropped <- t.unreachable_dropped + 1;
        drop t ~src ~dst ~reason:"cut" ~metric:metric_dropped_cut payload
      end
  | Ev_timer ->
      let action = ev.e_action in
      release_ev t ev;
      action ()
  | Ev_timer_node ->
      let node = ev.e_src and action = ev.e_action in
      release_ev t ev;
      if Topology.is_alive t.net.topology node then action ()
  | Ev_free -> assert false (* popped a released record: pool corruption *)
[@@zero_alloc_hot]

let run t ~until =
  let rec loop () =
    let ev = Plwg_util.Wheel.pop_or t.queue ~limit:until ~none:ev_nil in
    if ev != ev_nil then begin
      t.now <- Plwg_util.Wheel.cur t.queue;
      exec t ev;
      loop ()
    end
  in
  loop ();
  t.now <- max t.now until

let run_span t span = run t ~until:(Time.add t.now span)

let stats t =
  { sent = t.sent; delivered = t.delivered; wire_dropped = t.wire_dropped; unreachable_dropped = t.unreachable_dropped }

let in_flight t = t.in_flight
