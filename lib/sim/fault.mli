(** Declarative fault scripts for experiments, tests and chaos
    campaigns, over the engine's one fault entry point
    ({!Engine.apply_step}). *)

type step = Engine.step =
  | Crash of Node_id.t
  | Recover of Node_id.t
  | Partition of Node_id.t list list  (** connectivity classes; disjoint and covering the universe *)
  | Heal
  | Set_model of Model.t  (** swap the network cost model (loss burst, latency spike) *)

val apply : Engine.t -> step -> unit [@@test_support "tests apply a step between runs"]
(** {!Engine.apply_step}. *)

val install : Engine.t -> (Time.t * step) list -> unit
(** Schedule each step at its absolute time.  A step scheduled in the
    past of the engine's current clock fires immediately on the next
    [run] and emits a [Fault_past_step] trace warning. *)

(** JSON round-trip for fault scripts, used by the chaos shrinker's
    repro artifacts.  [Model.drop_prob] is encoded as an integer in
    parts-per-million ([drop_ppm]). *)

val script_to_json : (Time.t * step) list -> Plwg_obs.Json.t
val script_of_json : Plwg_obs.Json.t -> (Time.t * step) list
