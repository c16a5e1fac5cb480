(** Trace-driven invariant checking.

    The checks replay a trace, oldest first: a sink read in process or
    a JSONL dump ({!Plwg_obs.Sink.load_file}), so the same oracle runs
    on the sim, on the multi-domain backend and offline ([plwg check]).
    Each returns human-readable violations; [[]] means the trace is
    clean. *)

open Plwg_obs

(** The sink's trace.  @raise Failure ["trace truncated: N entries
    dropped"] if the ring overwrote entries (never a partial trace). *)
val entries : Sink.t -> Event.entry list

(** [check_sink check sink] is [check (entries sink)], or the
    truncation message as its one violation. *)
val check_sink : (Event.entry list -> string list) -> Sink.t -> string list

(** One more than the highest node id a wire event or partition names. *)
val n_nodes_of : Event.entry list -> int

(** {1 Virtual synchrony}  [View_installed], [Group_delivered] and
    [Group_left] at both layers; a group is its layer and id. *)

(** The [View_installed] entries of one node and group. *)
val installs_of : layer:Event.layer -> node:int -> group:string -> Event.entry list -> Event.entry list

(** Within each view of a total-order group, deliveries are
    prefix-compatible. *)
val check_total_order : layer:Event.layer -> group:string -> Event.entry list -> string list
  [@@test_support "oracle for total-order HWG groups, which tests drive"]

(** The group-agnostic checks: a node only installs views that contain
    it; two installs of one view id agree on its members; per node and
    group, installed view seqs increase (a [Group_left] starts a new
    membership) and a view id is installed once per membership; each
    message is delivered once and, per sender membership, in FIFO
    order; and two nodes that install the same view V and then the
    same successor V' deliver the same messages in V. *)
val check_vs : Event.entry list -> string list

(** {1 Protocol traces} *)

(** Every [Flush_begin] must be matched by exactly one [Flush_end] for
    the same (node, group, epoch).  [allow_open] tolerates flushes
    still in progress when the trace was cut. *)
val check_flush_pairing : ?allow_open:bool -> Event.entry list -> string list

(** Whether a [Msg_delivered] kind is application DATA ([hw-data]). *)
val is_data : string -> bool [@@test_support "tests count DATA deliveries with it"]

(** No application DATA delivery may cross the partition in force at
    the time of delivery. *)
val check_no_cross_partition_delivery : n_nodes:int -> Event.entry list -> string list

(** Reconcile steps in order of first occurrence after the last heal. *)
val reconcile_sequence : Event.entry list -> Event.reconcile_step list

(** The steps that occur must first occur in the paper's order (a step
    may be absent). *)
val check_reconcile_order : Event.entry list -> string list
  [@@test_support "tests feed it crafted reconcile traces"]

(** {!check_vs}, {!check_flush_pairing}, {!check_no_cross_partition_delivery}
    and {!check_reconcile_order}. *)
val check_all : ?allow_open:bool -> n_nodes:int -> Event.entry list -> string list
