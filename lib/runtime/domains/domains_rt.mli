(** OCaml 5 multi-domain runtime backend.

    Implements {!Plwg_runtime.Rt.S} by sharding node actors across
    domains ([node mod n_domains] owns the node) and synchronising them
    with a conservative time-stepped schedule:

    - each domain runs its nodes' events out of a private
      {!Plwg_util.Wheel} and advances through windows of width
      [model.link_base] — the lookahead: a message sent inside a window
      cannot arrive before the window ends, so a domain can execute a
      whole window without observing its peers;
    - cross-domain sends go into lock-free lanes, one per (window
      parity, source domain, destination domain): only the source
      appends during a window, and the destination drains them at the
      start of the next window, sorted by [(arrival, src, per-source
      seq)], so the fold order is independent of physical race outcomes;
    - one barrier ends each window (it spins briefly on atomics, then
      sleeps on a condition variable; with more domains than cores it
      sleeps at once): the drain of window k+1 reads only lanes written
      in window k, which makes a run deterministic for a fixed
      [(seed, n_domains)];
    - per-node randomness comes from {!Plwg_util.Rng.stream}, so a
      node's draws depend only on the seed and its own call sequence.

    The backend has no fault injection: {!Plwg_runtime.Rt.is_alive} is
    always [true], [on_recover] hooks never fire, and the liveness
    guard of [after_node] is trivially satisfied.  Wiring (subscribe,
    on_recover, timers set from the main domain) is only legal while
    the backend is quiescent — before the first {!run} or between
    runs.  The deterministic simulator remains the reference semantics;
    [plwg conformance] checks this backend against it. *)

open Plwg_sim

type t

val create :
  ?obs:Plwg_obs.t -> ?model:Model.t -> ?n_domains:int -> seed:int -> n_nodes:int -> unit -> t
(** [n_domains] defaults to 2 and is capped at [n_nodes].
    @raise Invalid_argument if [model.link_base <= 0] — the
    conservative window needs strictly positive lookahead. *)

val rt : t -> Plwg_runtime.Rt.t
(** Pack as a runtime for protocol layers. *)

val n_domains : t -> int

val now : t -> Time.t
(** Virtual time: the executing domain's clock from inside a handler,
    the end of the last completed run from the main domain. *)

val run : t -> until:Time.t -> unit
(** Execute windows up to [until]: the calling domain runs domain 0 and
    [n_domains - 1] spawned domains run the rest, joined before the
    return.  Monotone: [until] must not precede the current time.  If a
    handler or timer raises, every domain stops at its next window
    boundary and [run] re-raises the first exception; the backend's
    state is then unspecified. *)

val run_span : t -> Time.span -> unit

type stats = { sent : int; delivered : int; wire_dropped : int }

val stats : t -> stats
(** Totals over the backend's life; read while quiescent. *)

val in_flight : t -> int
