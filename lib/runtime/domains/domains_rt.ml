(* Multi-domain backend: one sim executor ([Engine.t]) per domain over
   one shared network ([Engine.net]), advanced in conservative windows.

   Ownership discipline (what makes the sharing story small):

   - a domain's executor — its wheel, clock, event pool and counters —
     and the per-node slots of the net and of [send_seq] for the nodes
     it owns are touched only by that domain while workers run, and
     only by the main domain while quiescent; Domain.spawn/join and the
     barrier's atomics provide the happens-before edges between those
     phases;
   - the rest of the net (topology, model, handler lists, recover
     hooks) changes only while quiescent: wiring and fault steps;
   - the only mid-run cross-domain channel is the lanes: one growable
     buffer per (window parity, destination domain, source domain).
     During window k the source alone appends to its parity-(k mod 2)
     lanes; after the window's barrier the destination alone drains
     them at the start of window k+1, while the sources write the
     other parity.  No lock, and one barrier per window;
   - metrics are taken under the net's lock and traces go to
     per-executor buffers merged after the join.

   Determinism: a domain's wheel changes only at deterministic points
   (its own execution, plus window-start lane drains sorted by
   [(arrival, src, seq)]), and every domain executes the same window
   sequence, so a run is reproducible for a fixed (seed, n_domains). *)

open Plwg_sim
module Rt = Plwg_runtime.Rt

(* The lane of one window parity from one source domain to one
   destination domain, struct-of-arrays: entry [i] is the message
   [payloads.(i)] with [keys.(5i .. 5i+4)] = its drain key
   [(arrival, src, per-source seq)], then [dst] and [sent_at].  Grown by
   doubling, never shrunk. *)
type lane = {
  mutable len : int
      [@shared_cell "lane: the source writes in window k, the destination drains after its barrier"];
  mutable keys : int array
      [@shared_cell "lane: the source writes in window k, the destination drains after its barrier"];
  mutable payloads : Payload.t array
      [@shared_cell "lane: the source writes in window k, the destination drains after its barrier"];
}

let stride = 5

type Payload.t += Lane_free

type dom = {
  idx : int;
  exec : Engine.t;
  mutable order : int array;  (* drain scratch: encoded lane entries, sorted in place *)
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
  n_domains : int;
  doms : dom array;
  lanes : lane array array array;  (* [lanes.(parity).(dst_domain).(src_domain)] *)
  out : int array;  (* slot [d]: parity of the lanes domain [d] writes; [d]-owned *)
  mutable drain : int;  (* parity the next run's first window drains; main-owned *)
  barrier : barrier;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;  (* first handler exception of a run *)
  obs : Plwg_obs.t option;
}

(* Which domain is executing, for [now]/[trace] called from inside a
   handler.  The slot is domain-local, set by each worker as it starts
   and cleared on the main domain once it has run domain 0; the handle
   is checked so two backends in one process cannot cross-talk. *)
let dls_ctx : (Obj.t * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Rounds of [Domain.cpu_relax] a barrier waiter spins before it
   sleeps.  With a core per domain, spinning catches the peer's arrival
   without a futex round trip; with more domains than cores, each round
   is taken from a peer that cannot run, so waiters sleep at once.
   Both sides are measured in EXPERIMENTS.md, "Domains scheduler". *)
let spin_limit = 4096

let lane_push l ~tick ~src ~seq ~dst ~sent_at payload =
  let n = l.len in
  if n = Array.length l.payloads then begin
    let cap = max 16 (2 * n) in
    let keys = Array.make (stride * cap) 0 and payloads = Array.make cap Lane_free in
    Array.blit l.keys 0 keys 0 (stride * n);
    Array.blit l.payloads 0 payloads 0 n;
    l.keys <- keys;
    l.payloads <- payloads
  end;
  let k = stride * n in
  l.keys.(k) <- tick;
  l.keys.(k + 1) <- src;
  l.keys.(k + 2) <- seq;
  l.keys.(k + 3) <- dst;
  l.keys.(k + 4) <- sent_at;
  l.payloads.(n) <- payload;
  l.len <- n + 1

let check_model model =
  if model.Model.link_base <= 0 then
    invalid_arg "Domains_rt: model.link_base must be positive (conservative lookahead window)"

let create ?obs ?(model = Model.default) ?(n_domains = 2) ~seed ~n_nodes () =
  if n_nodes <= 0 then invalid_arg "Domains_rt.create: n_nodes must be positive";
  if n_domains <= 0 then invalid_arg "Domains_rt.create: n_domains must be positive";
  check_model model;
  let n_domains = min n_domains n_nodes in
  let net = Engine.create_net ?obs ~model ~n_execs:n_domains ~n_nodes ~rng:(Plwg_util.Rng.stream ~seed) () in
  let lane () = { len = 0; keys = [||]; payloads = [||] } in
  let lanes = Array.init 2 (fun _ -> Array.init n_domains (fun _ -> Array.init n_domains (fun _ -> lane ()))) in
  let out = Array.make n_domains 0 in
  (* slot [n] bumped only on [n]'s executor: the per-source drain key *)
  let send_seq = Array.make n_nodes 0 in
  (* A message for another domain's node: the lane the destination
     drains at its next window start (or at the next run's first window,
     when sent from the quiescent main domain). *)
  let remote idx ~tick ~src ~dst ~sent_at payload =
    let seq = send_seq.(src) in
    send_seq.(src) <- seq + 1;
    lane_push lanes.(out.(idx)).(dst mod n_domains).(idx) ~tick ~src ~seq ~dst ~sent_at payload
  in
  {
    n_domains;
    doms = Array.init n_domains (fun idx -> { idx; exec = Engine.executor net ~idx ~remote:(remote idx); order = [||] });
    lanes;
    out;
    drain = 0;
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
    obs;
  }

(* The executor running the calling code: the worker's own from inside
   a handler, domain 0's on the quiescent main domain (every executor's
   clock then reads the end of the last run). *)
let current t =
  match Domain.DLS.get dls_ctx with
  | Some (o, i) when o == Obj.repr t -> t.doms.(i).exec
  | _ -> t.doms.(0).exec

let owner t node = t.doms.(node mod t.n_domains).exec
let now t = Engine.now (current t)

let apply t step =
  (match Domain.DLS.get dls_ctx with
  | Some _ -> invalid_arg "Domains_rt.apply: fault steps apply only while the backend is quiescent"
  | None -> ());
  (match step with Engine.Set_model model -> check_model model | _ -> ());
  Engine.apply_step t.doms.(0).exec step

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
  let ia = stride * (a / n) and ib = stride * (b / n) in
  if ka.(ia) <> kb.(ib) then ka.(ia) < kb.(ib)
  else if ka.(ia + 1) <> kb.(ib + 1) then ka.(ia + 1) < kb.(ib + 1)
  else ka.(ia + 2) < kb.(ib + 2)

(* Fold the lanes of [parity] addressed to [d] into its executor, in key
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
      let key = stride * i in
      Engine.arrive d.exec ~tick:l.keys.(key) ~src:l.keys.(key + 1) ~dst:l.keys.(key + 3) ~sent_at:l.keys.(key + 4)
        l.payloads.(i);
      l.payloads.(i) <- Lane_free
    done;
    Array.iter (fun l -> l.len <- 0) col
  end

(* Windows from [start] to [until] of width [model.link_base] — the
   lookahead: a message sent inside a window cannot arrive before the
   window ends.  [parity] is the lanes the first window drains.  Each
   window drains the lanes written in the previous one, executes while
   writing the other parity, and ends at the one barrier.  Returns the
   parity the next run must drain.  A raise is recorded (the first one
   wins) and poisons the barrier, which ends every peer's run at its
   next window boundary. *)
let worker t d ~start ~until ~parity =
  let width = (Engine.model d.exec).Model.link_base in
  let rec windows start parity =
    if Time.compare start until < 0 then begin
      drain_lanes t d parity;
      t.out.(d.idx) <- 1 - parity;
      let window_end = min (Time.add start width) until in
      Engine.run d.exec ~until:window_end;
      if barrier_wait t.barrier then windows window_end (1 - parity) else 1 - parity
    end
    else parity
  in
  Domain.DLS.set dls_ctx (Some (Obj.repr t, d.idx));
  Engine.set_parallel d.exec true;
  let next =
    try windows start parity
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set t.failure None (Some (e, bt)));
      poison t.barrier;
      parity
  in
  Engine.set_parallel d.exec false;
  next

(* Merge per-executor buffers into the sink, ordered by
   [(timestamp, domain)] — each buffer is already chronological, so a
   stable sort on that key yields one deterministic global order. *)
let flush_traces t =
  match t.obs with
  | None -> ()
  | Some o ->
      Array.to_list t.doms
      |> List.concat_map (fun d -> List.map (fun (at, e) -> (at, d.idx, e)) (Engine.take_trace d.exec))
      |> List.stable_sort (fun (a, da, _) (b, db, _) ->
             let c = Time.compare a b in
             if c <> 0 then c else Int.compare da db)
      |> List.iter (fun (at, _, e) -> Plwg_obs.Sink.emit o.Plwg_obs.sink ~at_us:at e)

let run t ~until =
  let start = now t in
  if Time.compare until start < 0 then invalid_arg "Domains_rt.run: time cannot rewind";
  (* a run that raised may have left the barrier mid-phase *)
  Atomic.set t.barrier.waiting 0;
  Atomic.set t.barrier.poisoned false;
  let parity = t.drain in
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
  | None -> t.drain <- next

let run_span t span = run t ~until:(Time.add (now t) span)

type stats = Engine.stats = { sent : int; delivered : int; wire_dropped : int; unreachable_dropped : int }

let stats t =
  Array.fold_left
    (fun acc d ->
      let s = Engine.stats d.exec in
      {
        sent = acc.sent + s.sent;
        delivered = acc.delivered + s.delivered;
        wire_dropped = acc.wire_dropped + s.wire_dropped;
        unreachable_dropped = acc.unreachable_dropped + s.unreachable_dropped;
      })
    { sent = 0; delivered = 0; wire_dropped = 0; unreachable_dropped = 0 }
    t.doms

let in_flight t = Array.fold_left (fun acc d -> acc + Engine.in_flight d.exec) 0 t.doms

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

(* Node-affine calls go to the node's owner: a send to the owner of
   [src], which is the executing domain during a run, and the executor
   whose CPU queue a self-send joins. *)
module Backend : Rt.S with type t = t = struct
  type nonrec t = t

  let now = now
  let n_nodes t = Engine.n_nodes t.doms.(0).exec
  let nodes t = Engine.nodes t.doms.(0).exec
  let is_alive t node = Engine.is_alive (owner t node) node
  let subscribe t node handler = Engine.subscribe (owner t node) node handler
  let send t ~src ~dst payload = Engine.send (owner t src) ~src ~dst payload
  let multicast t ~src ~dsts payload = Engine.multicast (owner t src) ~src ~dsts payload
  let after_node t node span action = Engine.after_node (owner t node) node span action
  let after_node_ t node span action = Engine.after_node_ (owner t node) node span action
  let at_node_ t node span action = Engine.at_node_ (owner t node) node span action
  let on_recover t node hook = Engine.on_recover (owner t node) node hook
  let rng_node t node = Engine.rng_node (owner t node) node
  let trace t make = Engine.trace (current t) make
  let count ?by t name = Engine.count ?by (current t) name
  let observe t name v = Engine.observe (current t) name v
end

let rt t = Rt.Rt ((module Backend), t)
