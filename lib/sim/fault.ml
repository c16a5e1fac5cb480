type step = Engine.step =
  | Crash of Node_id.t
  | Recover of Node_id.t
  | Partition of Node_id.t list list
  | Heal
  | Set_model of Model.t

let pp_step ppf = function
  | Crash node -> Format.fprintf ppf "crash %a" Node_id.pp node
  | Recover node -> Format.fprintf ppf "recover %a" Node_id.pp node
  | Partition classes ->
      Format.fprintf ppf "partition %a" (Format.pp_print_list ~pp_sep:Format.pp_print_space Node_id.pp_list) classes
  | Heal -> Format.fprintf ppf "heal"
  | Set_model m ->
      Format.fprintf ppf "set-model base=%dus jitter=%dus drop=%.4f proc=%dus" m.Model.link_base m.Model.link_jitter
        m.Model.drop_prob m.Model.proc_time

let step_to_string step = Format.asprintf "%a" pp_step step

let apply = Engine.apply_step

let install engine script =
  List.iter
    (fun (time, step) ->
      let delay = Time.diff time (Engine.now engine) in
      if delay < 0 then
        Engine.trace engine (fun () ->
            Plwg_obs.Event.Fault_past_step { step = step_to_string step; scheduled_us = time });
      let (_ : Engine.cancel) = Engine.after engine (max 0 delay) (fun () -> apply engine step) in
      ())
    script

(* JSON (de)serialization.  [drop_prob] travels as parts-per-million so
   the script format needs only the integer/string/list subset of
   {!Plwg_obs.Json} and round-trips exactly. *)

module Json = Plwg_obs.Json

let drop_prob_to_ppm p = int_of_float ((p *. 1_000_000.) +. 0.5)
let ppm_to_drop_prob ppm = float_of_int ppm /. 1_000_000.

let step_to_json = function
  | Crash node -> Json.Obj [ ("step", Json.Str "crash"); ("node", Json.Int node) ]
  | Recover node -> Json.Obj [ ("step", Json.Str "recover"); ("node", Json.Int node) ]
  | Partition classes ->
      Json.Obj
        [
          ("step", Json.Str "partition");
          ("classes", Json.List (List.map (fun cls -> Json.List (List.map (fun m -> Json.Int m) cls)) classes));
        ]
  | Heal -> Json.Obj [ ("step", Json.Str "heal") ]
  | Set_model m ->
      Json.Obj
        [
          ("step", Json.Str "set-model");
          ("link_base_us", Json.Int m.Model.link_base);
          ("link_jitter_us", Json.Int m.Model.link_jitter);
          ("drop_ppm", Json.Int (drop_prob_to_ppm m.Model.drop_prob));
          ("proc_us", Json.Int m.Model.proc_time);
        ]

let step_of_json json =
  let int key = Json.to_int (Json.member key json) in
  match Json.to_str (Json.member "step" json) with
  | "crash" -> Crash (int "node")
  | "recover" -> Recover (int "node")
  | "partition" ->
      Partition
        (List.map (fun cls -> List.map Json.to_int (Json.to_list cls)) (Json.to_list (Json.member "classes" json)))
  | "heal" -> Heal
  | "set-model" ->
      Set_model
        {
          Model.link_base = int "link_base_us";
          link_jitter = int "link_jitter_us";
          drop_prob = ppm_to_drop_prob (int "drop_ppm");
          proc_time = int "proc_us";
        }
  | other -> invalid_arg ("Fault.step_of_json: unknown step " ^ other)

let script_to_json script =
  Json.List
    (List.map
       (fun (time, step) ->
         match step_to_json step with
         | Json.Obj fields -> Json.Obj (("at_us", Json.Int time) :: fields)
         | _ -> assert false)
       script)

let script_of_json json =
  List.map (fun entry -> (Json.to_int (Json.member "at_us" entry), step_of_json entry)) (Json.to_list json)
