(** Simulated time.

    Time is a count of microseconds since the start of the run; spans are
    differences of times.  Both are plain integers under the hood so they
    can be compared and added without allocation, but the constructors
    below should be used instead of raw literals. *)

type t = int
(** Absolute instant, in microseconds. *)

type span = int
(** Duration, in microseconds. *)

val zero : t

val us : int -> span
val ms : int -> span
val sec : int -> span

val add : t -> span -> t
val diff : t -> t -> span

val to_float_ms : span -> float
val to_float_sec : span -> float

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Renders as seconds with millisecond precision, e.g. ["1.250s"]. *)
