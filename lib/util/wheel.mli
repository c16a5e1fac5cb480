(** Hierarchical timing wheel, used as the simulator's event queue.

    Events are keyed on integer ticks.  The wheel has {!levels} levels
    of 256 slots each; an event lands at the lowest level whose slot
    granularity can still distinguish it from the current tick, and
    cascades down one level at a time as the cursor approaches, so both
    [schedule] and [pop_or] are O(1) for the near horizon.  Events due
    beyond the top-level horizon ([2^48] ticks ahead of the cursor) are
    rejected with [Invalid_argument] — at microsecond ticks that is
    about 8.9 years of simulated time, far past any run the simulator
    supports.

    Ordering contract (the simulator's determinism depends on it): pops
    come out in nondecreasing tick order, and events sharing a tick pop
    in schedule-call order — exactly the [(time, seq)] order of the
    binary-heap queue the wheel replaces.  The property tests in
    [test/test_util.ml] check this against a heap model.

    Nodes are pooled: a popped or cancelled event's node returns to an
    internal freelist, so steady-state operation allocates nothing.
    Cancellation handles carry a generation stamp; cancelling after the
    event has fired (or after its node has been reused) is a no-op, so
    a cancelled event can never fire and a stale cancel can never kill
    a later occupant of the same node. *)

type 'a t

type 'a handle
(** Cancellation token for an event scheduled with [schedule_handle]. *)

val create : ?start:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty wheel with its cursor at [start]
    (default 0).  [dummy] is used to poison the payload slot of free
    and cancelled nodes so released values are never retained. *)

val cur : 'a t -> int
(** Current cursor tick: the tick of the last popped event, or the
    last [limit] the wheel advanced to when a pop came up empty. *)

val length : 'a t -> int [@@test_support "tests observe the wheel"]
(** Number of scheduled, not-yet-popped, not-cancelled events. *)

val is_empty : 'a t -> bool [@@test_support "tests observe the wheel"]

val schedule : 'a t -> tick:int -> 'a -> unit
(** Schedule an event; allocation-free once the pool is warm.  A tick
    below the cursor is accepted and delivered before any event at or
    above the cursor (the simulator itself never schedules in the
    past — see [Fault.install]'s clamping). *)

val schedule_handle : 'a t -> tick:int -> 'a -> 'a handle
(** As [schedule], but returns a handle for {!cancel}.  Allocates the
    handle record; use plain [schedule] on paths that never cancel. *)

val cancel : 'a t -> 'a handle -> 'a option
(** Cancel the event if it has not fired yet: returns [Some value] and
    guarantees the event will never pop.  Returns [None] if the event
    already fired, was already cancelled, or the handle is stale
    (generation mismatch after node reuse).  Idempotent. *)

val pop_or : 'a t -> limit:int -> none:'a -> 'a
(** Pop the earliest event with tick <= [limit], advancing the cursor
    to its tick; or return [none] (physical identity is fine as the
    caller's sentinel) and advance the cursor to [limit] if no event is
    due.  Allocation-free. *)

val pooled : 'a t -> int [@@test_support "tests observe the node pool"]
(** Nodes currently sitting in the freelist. *)

val allocated : 'a t -> int [@@test_support "tests observe the node pool"]
(** Total nodes ever allocated (pool high-water mark plus live). *)
