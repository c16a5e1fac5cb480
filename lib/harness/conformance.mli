(** Backend conformance harness: one seeded Direct-mode LWG scenario
    run on the deterministic simulator (the oracle) and on the
    multi-domain backend, compared modulo the per-node commutativity
    relation (DESIGN.md, "Runtime layer"): per-(receiver, group,
    sender) delivery sequences and final view memberships must match;
    cross-node and cross-sender interleavings may differ.  Each run's
    own trace feeds {!Trace_check.check_vs}. *)

type channel = { rcv : int; group : string; sender : int; seqs : int list }
(** One delivery channel: the payload sequence numbers node [rcv]
    delivered in group [group] from [sender], in delivery order. *)

type outcome = {
  channels : channel list;  (** sorted by [(rcv, group, sender)] *)
  views : (int * string * int list) list;  (** final [(node, group, members)] *)
  trace : string;  (** trace sink contents, one JSON line per event *)
  violations : string list;  (** {!Trace_check.check_vs} over the run's trace *)
}

val run_sim : seed:int -> outcome [@@test_support "tests mutate one run to check the diff"]

val diff : oracle:outcome -> candidate:outcome -> string list
  [@@test_support "tests mutate one run to check the diff"]
(** Mismatches under the commutativity relation; [[]] means the
    executions are equivalent. *)

val check : seed:int -> n_domains:int -> (unit, string list) result
(** The full conformance protocol: the sim reproduces its trace
    byte-for-byte across two runs; the domains backend reproduces
    channels, views and its merged trace for the fixed
    [(seed, n_domains)]; the domains run is equivalent to the sim run
    under {!diff}; and neither run's trace violates the
    virtual-synchrony invariants of {!Trace_check.check_vs}. *)
