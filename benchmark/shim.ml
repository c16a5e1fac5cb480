(* Tracing shim for the [--trace 1] run: an [Rt.S] backend that wraps the
   real one and is handed to the stack in its place.  It measures from
   outside the libraries:

   - time inside receive handlers and inside timer callbacks, with the
     monotonic clock (reading it does not allocate);
   - every send, classified by its outer payload constructor;
   - the layers' own [Rt.count] / [Rt.observe] calls.

   Every call is forwarded unchanged, [rng_node] included, so a traced
   run simulates exactly what the untraced one does; the benchmark
   checks that its simulated-time metrics come out equal.

   Accumulators are per node: the runtime contract runs a node's
   handlers and timers on that node's executor only, so each slot has a
   single writer on either backend.  Counts and observations are rare
   protocol events (flushes, switches, naming requests) and share one
   lock. *)

open Plwg_sim
module Rt = Plwg_runtime.Rt
module Metrics = Plwg_obs.Metrics

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

let families = [| "transport_seg"; "transport_ack"; "detector_heartbeat"; "hwg_raw"; "ns_raw"; "other" |]

let is_component_prefix name ~from prefix =
  String.length name - from >= String.length prefix
  && String.equal (String.sub name from (String.length prefix)) prefix

(* Index into [families] of a payload's outer constructor.  Constructor
   names are qualified ("Plwg_transport.Transport.Seg"); layers name
   their messages with a common prefix ("Hw_", "Ns_"). *)
let family (p : Payload.t) =
  let name = Obj.Extension_constructor.name (Obj.Extension_constructor.of_val p) in
  let from = match String.rindex_opt name '.' with Some i -> i + 1 | None -> 0 in
  if String.ends_with ~suffix:"Transport.Seg" name then 0
  else if String.ends_with ~suffix:"Transport.Ack" name then 1
  else if String.ends_with ~suffix:"Detector.Heartbeat" name then 2
  else if is_component_prefix name ~from "Hw_" then 3
  else if is_component_prefix name ~from "Ns_" then 4
  else 5

type node_acc = {
  mutable recv_ns : int;
  mutable timer_ns : int;
  mutable timer_fires : int;
  mutable cross : int;  (** sends to a node placed on another domain *)
  sent : int array;  (** by family *)
  recv_n : int array;  (** by family *)
  recv_ns_by : int array;  (** by family *)
}

type t = {
  inner : Rt.t;
  n_domains : int;
  accs : node_acc array;
  lock : Mutex.t;
  metrics : Metrics.t;
}

let fresh_acc () =
  let n = Array.length families in
  {
    recv_ns = 0;
    timer_ns = 0;
    timer_fires = 0;
    cross = 0;
    sent = Array.make n 0;
    recv_n = Array.make n 0;
    recv_ns_by = Array.make n 0;
  }

let create ~n_domains inner =
  {
    inner;
    n_domains;
    accs = Array.init (Rt.n_nodes inner) (fun _ -> fresh_acc ());
    lock = Mutex.create ();
    metrics = Metrics.create ();
  }

(* Zero the timing and send accumulators in place (handlers hold their
   node's record; counts and observations are kept): called at the
   start of the measured window, while the backend is quiescent. *)
let reset_window t =
  Array.iter
    (fun (a : node_acc) ->
      a.recv_ns <- 0;
      a.timer_ns <- 0;
      a.timer_fires <- 0;
      a.cross <- 0;
      List.iter (fun arr -> Array.fill arr 0 (Array.length arr) 0) [ a.sent; a.recv_n; a.recv_ns_by ])
    t.accs

let note_send t ~src ~dst payload =
  let a = t.accs.(src) in
  let f = family payload in
  a.sent.(f) <- a.sent.(f) + 1;
  if src mod t.n_domains <> dst mod t.n_domains then a.cross <- a.cross + 1

let timed t node action () =
  let a = t.accs.(node) in
  let t0 = clock_ns () in
  action ();
  a.timer_ns <- a.timer_ns + (clock_ns () - t0);
  a.timer_fires <- a.timer_fires + 1

module Backend : Rt.S with type t = t = struct
  type nonrec t = t

  let now t = Rt.now t.inner
  let n_nodes t = Rt.n_nodes t.inner
  let nodes t = Rt.nodes t.inner
  let is_alive t node = Rt.is_alive t.inner node

  let subscribe t node handler =
    let a = t.accs.(node) in
    Rt.subscribe t.inner node (fun ~src payload ->
        let f = family payload in
        let t0 = clock_ns () in
        handler ~src payload;
        let dt = clock_ns () - t0 in
        a.recv_ns <- a.recv_ns + dt;
        a.recv_n.(f) <- a.recv_n.(f) + 1;
        a.recv_ns_by.(f) <- a.recv_ns_by.(f) + dt)

  let send t ~src ~dst payload =
    note_send t ~src ~dst payload;
    Rt.send t.inner ~src ~dst payload

  let multicast t ~src ~dsts payload =
    List.iter (fun dst -> note_send t ~src ~dst payload) dsts;
    Rt.multicast t.inner ~src ~dsts payload

  let after_node t node span action = Rt.after_node t.inner node span (timed t node action)
  let after_node_ t node span action = Rt.after_node_ t.inner node span (timed t node action)
  let at_node_ t node span action = Rt.at_node_ t.inner node span (timed t node action)
  let on_recover t node hook = Rt.on_recover t.inner node hook
  let rng_node t node = Rt.rng_node t.inner node
  let trace t make = Rt.trace t.inner make

  let count ?by t name =
    Mutex.protect t.lock (fun () -> Metrics.incr ?by t.metrics name);
    Rt.count ?by t.inner name

  let observe t name v =
    Mutex.protect t.lock (fun () -> Metrics.observe t.metrics name v);
    Rt.observe t.inner name v
end

let rt t = Rt.Rt ((module Backend), t)
let counter t name = Metrics.counter t.metrics name

let summary t name = Metrics.summary t.metrics name

(* Totals over the window, read from the main domain after the run. *)
type totals = {
  recv_ns : int;
  timer_ns : int;
  timer_fires : int;
  cross : int;
  sent : int array;
  recv_n : int array;
  recv_ns_by : int array;
  busy_by_domain : int array;  (** handler + timer ns of the nodes each domain owns *)
}

let totals t =
  let n = Array.length families in
  let sum f = Array.fold_left (fun acc a -> acc + f a) 0 t.accs in
  let by f = Array.init n (fun i -> sum (fun a -> (f a).(i))) in
  let busy_by_domain = Array.make t.n_domains 0 in
  Array.iteri
    (fun node (a : node_acc) ->
      let d = node mod t.n_domains in
      busy_by_domain.(d) <- busy_by_domain.(d) + a.recv_ns + a.timer_ns)
    t.accs;
  {
    recv_ns = sum (fun a -> a.recv_ns);
    timer_ns = sum (fun a -> a.timer_ns);
    timer_fires = sum (fun a -> a.timer_fires);
    cross = sum (fun a -> a.cross);
    sent = by (fun a -> a.sent);
    recv_n = by (fun a -> a.recv_n);
    recv_ns_by = by (fun a -> a.recv_ns_by);
    busy_by_domain;
  }
