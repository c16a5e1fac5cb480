(** Reproduction of the paper's Figure 2: two sets of [n] user groups
    with disjoint membership (4 processes each), compared across the
    three service modes — {e no LWG service} (Direct), {e static LWG}
    (all groups on one global HWG) and {e dynamic LWG} (the paper's
    service).  Three panels: data-transfer latency, aggregate
    throughput, and recovery time after a member crash. *)

type result = {
  latency_ms : float;  (** mean time from send to delivery at all probe-group members *)
  throughput_msg_s : float;  (** aggregate goodput under saturation *)
  recovery_ms : float;  (** crash to every affected group re-installed at all survivors *)
}

val run : mode:Stack.service_mode -> n:int -> seed:int -> result [@@test_support "tests run one experiment point"]
(** One experiment point: [n] groups per set, 8 processes. *)

val print_all : ?ns:int list -> ?seed:int -> unit -> unit
(** Run the full sweep and print the three panels as tables. *)
