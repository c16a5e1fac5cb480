(** Lightweight metrics registry: named counters and histograms.  A
    histogram keeps a bounded, deterministically-sampled reservoir;
    percentile queries use the nearest-rank method. *)

(** Nearest-rank percentile of a sample list; [0.0] on the empty list. *)
val percentile : float -> float list -> float

type summary = { count : int; mean : float; min : float; max : float; p50 : float; p95 : float; p99 : float }

type t

val create : unit -> t
val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int
val observe : t -> string -> float -> unit

(** [None] when the histogram is absent or empty. *)
val summary : t -> string -> summary option

val report : Format.formatter -> t -> unit
