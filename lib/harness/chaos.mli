(** Chaos campaigns: seeded random fault schedules over the full stack,
    a convergence oracle, and a delta-debugging schedule shrinker.

    A campaign is a pure function of [(seed, runs, profile)]: the same
    inputs regenerate the same schedules and the same verdicts.  Each
    schedule mixes crashes, recoveries, random partitions, heals, loss
    bursts and latency spikes inside a bounded window, then a fixed
    cleanup tail recovers every node, restores the base network model
    and settles the topology — so after the quiescence span the oracle
    may legitimately demand convergence per reachability component:
    HWG views agree, LWG views merged with consistent mappings, naming
    replicas reconciled with no outstanding MULTIPLE-MAPPINGS, no
    unmatched flush-begin in the trace, virtual synchrony at both group
    layers, and transport backlogs drained.

    On failure, {!shrink} minimizes the schedule while preserving the
    failure and {!to_repro_json} emits a self-contained artifact, so
    any red campaign becomes a one-line repro
    ([plwg_cli chaos --replay FILE]). *)

open Plwg_sim
open Plwg_vsync.Types

type Payload.t += Chaos_app of int  (** the application traffic injected during a run *)

(* Intensity profiles *)

type profile = {
  name : string;
  n_app : int;
  n_lwgs : int;
  steps_lo : int;  (** inclusive bounds on the number of fault steps *)
  steps_hi : int;
  warmup : Time.span;  (** groups form and traffic flows before the first fault *)
  window : Time.span;  (** faults land uniformly inside this span *)
  settle : Time.span;  (** guaranteed fault-free quiescence tail *)
  traffic_period : Time.span;
}

val profile_of_string : string -> (profile, string) result
(** ["quick"] (the smoke campaign's), ["default"] or ["heavy"]. *)

(* Schedules *)

type schedule = {
  seed : int;  (** seeds both the stack and the generator *)
  mode : Stack.service_mode;
  profile : profile;
  script : (Time.t * Fault.step) list;  (** the chaotic window; what the shrinker minimizes *)
  tail : (Time.t * Fault.step) list;  (** fixed cleanup; never shrunk *)
}

val generate : seed:int -> mode:Stack.service_mode -> profile -> schedule
  [@@test_support "tests build single schedules; campaigns generate their own"]

val mode_to_string : Stack.service_mode -> string

(* Execution *)

type verdict = { run : int; schedule : schedule; failures : string list (** empty = pass *) }

val run_schedule :
  ?metrics:Plwg_obs.Metrics.t ->
  ?on_trace:(Plwg_obs.Event.entry list -> unit) ->
  ?check_determinism:bool ->
  ?run:int ->
  schedule ->
  verdict
(** Build a fresh stack from the schedule's seed, join [n_lwgs] groups
    on every app node, drive periodic application traffic through the
    fault window, execute the script + tail, wait out the settle span
    and judge with the oracle.  Deterministic in the schedule.  With
    [~check_determinism:true] the schedule runs a second time, silently
    (fresh metrics, no [on_trace]), and a divergence of the two
    serialized traces is a "determinism: ..." failure on the verdict. *)

type report = { runs : int; verdicts : verdict list (** chronological *) }

val campaign :
  ?metrics:Plwg_obs.Metrics.t ->
  ?on_trace:(Plwg_obs.Event.entry list -> unit) ->
  ?on_verdict:(verdict -> unit) ->
  ?check_determinism:bool ->
  seed:int ->
  runs:int ->
  profile ->
  report
(** Run [runs] generated schedules, rotating the service mode
    (dynamic, static, direct) across runs.  Run [i] uses seed
    [seed + 7919 * i], so any single run is reproducible on its own.
    [check_determinism] is passed to {!run_schedule} (roughly doubling
    campaign cost). *)

val failed : report -> verdict list

(* Oracle, exposed for tests *)

val oracle : Stack.t -> lwgs:Gid.t list -> string list [@@test_support "tests judge hand-built stacks"]
(** A settled stack's failures; a truncated trace is one of them. *)

val chaos_lwg : int -> Gid.t [@@test_support "tests join the runner's groups on hand-built stacks"]
(** The fixed group ids the runner joins ([chaos_lwg 0 .. n_lwgs-1]). *)

(* Shrinking *)

val shrink : fails:(schedule -> bool) -> schedule -> schedule
(** Minimize [schedule.script] while [fails] stays true: ddmin over the
    steps, then partition-class merging, then time rounding, iterated
    to a (bounded) fixpoint.  [fails schedule] must already be true.
    The cleanup tail is preserved untouched. *)

(* Repro artifacts *)

val to_repro_json : schedule -> Plwg_obs.Json.t
val of_repro_json : Plwg_obs.Json.t -> (schedule, string) result
