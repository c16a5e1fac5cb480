(** Ring-buffered trace sink.  Bounded memory: once the ring is full the
    oldest entries are overwritten and counted as dropped.  Emission is
    a couple of array writes, cheap enough to leave on during
    benchmarks.  The ring's array grows by doubling up to its capacity,
    so a short run does not pay for a long run's buffer. *)

type t

(** Raises [Invalid_argument] on a non-positive capacity. *)
val create : ?capacity:int -> unit -> t

val emit : t -> at_us:int -> Event.t -> unit

(** Entries currently retained in the ring. *)
val length : t -> int

(** Entries lost to ring overflow. *)
val dropped : t -> int

val clear : t -> unit

(** Oldest-first iteration over the retained window. *)
val iter : t -> (Event.entry -> unit) -> unit

val to_list : t -> Event.entry list
val write_file : t -> string -> unit
val load_file : string -> Event.entry list
