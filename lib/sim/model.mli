(** Physical-layer cost model.

    [link_base]/[link_jitter] give one-way network latency
    (base + uniform jitter).  [drop_prob] is per-message loss on the
    wire (partitions drop independently of this).  [proc_time] is the
    CPU cost a node pays to receive one message: received messages
    queue FIFO at the destination, so unrelated traffic delays relevant
    traffic — this is what makes light-weight-group "interference"
    (paper, Section 2) observable in simulation. *)

type t = {
  link_base : Time.span;
  link_jitter : Time.span;
  drop_prob : float;
  proc_time : Time.span;
}

val default : t
(** 200us +/- 100us links, no loss, 20us per received message — a loaded
    10 Mbps Ethernet LAN in the spirit of the paper's testbed. *)

val lossless : t [@@test_support "application API: a loss-free network model"]
(** Same as [default] but deterministic: no jitter, no loss.  Used by
    protocol unit tests that assert exact delivery orders. *)

val lossy : float -> t
(** [default] with the given wire drop probability. *)
