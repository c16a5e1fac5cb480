(** Scripted reproduction of the paper's Figure 3 / Table 3 (inconsistent
    mappings created in concurrent partitions) and Figure 4 / Table 4
    (the evolution of the naming-service database while the partition
    heals: merged naming service → merged HWGs → switched LWGs → merged
    LWGs). *)

type stage = {
  label : string;
  reached_at_ms : float;  (** simulated time since the heal *)
  rendering : string;  (** naming database in the style of Tables 3/4 *)
}

type outcome = {
  stages : stage list;  (** in order; a missing stage means no convergence *)
  converged : bool;
  trace_violations : string list;  (** {!Trace_check.check_all} over the run's trace *)
}

val run : ?obs:Plwg_obs.t -> ?seed:int -> unit -> outcome

val print : outcome -> unit
