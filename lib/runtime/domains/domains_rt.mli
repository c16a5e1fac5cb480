(** OCaml 5 multi-domain runtime backend.

    Implements {!Plwg_runtime.Rt.S} by running one sim executor
    ({!Plwg_sim.Engine.t}) per domain over one shared network: the
    delivery semantics, the link and CPU model, timers and the fault
    plane are the sim's.  Domain [node mod n_domains] owns the node, and
    the domains synchronise with a conservative time-stepped schedule:

    - each domain advances through windows of width [model.link_base]
      — the lookahead: a message sent inside a window cannot arrive
      before the window ends, so a domain can execute a whole window
      without observing its peers;
    - a send to another domain's node goes into a lock-free lane, one
      per (window parity, source domain, destination domain): only the
      source appends during a window, and the destination drains them
      at the start of the next window, sorted by
      [(arrival, src, per-source seq)], so the fold order is independent
      of physical race outcomes;
    - one barrier ends each window (it spins briefly on atomics, then
      sleeps on a condition variable; with more domains than cores it
      sleeps at once): the drain of window k+1 reads only lanes written
      in window k, which makes a run deterministic for a fixed
      [(seed, n_domains)];
    - per-node randomness comes from {!Plwg_util.Rng.stream}, so a
      node's draws depend only on the seed and its own call sequence.

    Faults (crash, recover, partition, heal, model swaps) are applied
    with {!apply} while the backend is quiescent, so they take effect at
    a window boundary.  Wiring (subscribe, on_recover, timers set from
    the main domain) is likewise only legal while quiescent — before
    the first {!run} or between runs.  The deterministic simulator
    remains the reference semantics; [plwg conformance] checks this
    backend against it. *)

open Plwg_sim

type t

val create :
  ?obs:Plwg_obs.t -> ?model:Model.t -> ?n_domains:int -> seed:int -> n_nodes:int -> unit -> t
(** [n_domains] defaults to 2 and is capped at [n_nodes].
    @raise Invalid_argument if [model.link_base <= 0] — the
    conservative window needs strictly positive lookahead. *)

val rt : t -> Plwg_runtime.Rt.t
(** Pack as a runtime for protocol layers. *)

val now : t -> Time.t
(** Virtual time: the executing domain's clock from inside a handler,
    the end of the last completed run from the main domain. *)

val apply : t -> Fault.step -> unit
  [@@test_support "application API: the domains backend's fault plane between runs"]
(** Apply one fault step to the shared network through
    {!Plwg_sim.Engine.apply_step}, the sim's own fault path.  Quiescent
    only: raises [Invalid_argument] from inside a run, on a step
    [apply_step] rejects, and on a model whose [link_base] is not
    positive. *)

val run : t -> until:Time.t -> unit
(** Execute windows up to [until]: the calling domain runs domain 0 and
    [n_domains - 1] spawned domains run the rest, joined before the
    return.  Monotone: [until] must not precede the current time.  If a
    handler or timer raises, every domain stops at its next window
    boundary and [run] re-raises the first exception; the backend's
    state is then unspecified. *)

val run_span : t -> Time.span -> unit

type stats = Engine.stats = { sent : int; delivered : int; wire_dropped : int; unreachable_dropped : int }

val stats : t -> stats
(** The executors' counters, summed; read while quiescent. *)

val in_flight : t -> int
(** Messages accepted onto the wire or a CPU queue and not yet
    delivered or dropped, summed over executors; read while
    quiescent. *)
