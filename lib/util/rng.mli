(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator draws from one of these
    generators, so a run is fully reproducible from its seed.  [split]
    derives an independent stream, which lets subsystems consume
    randomness without perturbing each other.

    The state is kept unboxed: {!int} and {!bool} draws allocate
    nothing (the link-jitter draw of every wire message is an {!int}). *)

type t

val create : seed:int -> t
(** Fresh generator from a 63-bit seed. *)

val split : t -> t
(** Derive an independent generator; the parent advances. *)

val stream : seed:int -> int -> t
(** [stream ~seed index] is the [index]-th generator of an indexed
    family, derived without consuming draws from any other generator —
    so every runtime backend seeds per-node streams identically, and
    adding a node never perturbs existing streams.  Independent of
    [create ~seed] for the same seed. *)

val copy : t -> t [@@test_support "application API: replay a stream"]
(** Clone the current state (the clone replays the same stream). *)

val int64 : t -> int64 [@@test_support "tests pin the raw splitmix64 stream"]
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be > 0. *)

val float : t -> float -> float [@@test_support "application API: uniform float draw"]
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool [@@test_support "application API: fair coin"]

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float [@@test_support "application API: exponential draw"]
(** Exponentially distributed value with the given mean. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.  @raise Invalid_argument on []. *)

val shuffle : t -> 'a list -> 'a list [@@test_support "application API: random permutation"]
(** Uniform random permutation. *)
