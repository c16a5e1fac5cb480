(* The repository's benchmark: the LWG service under four workloads,
   end-to-end metrics summarised over seeded fresh-stack repetitions,
   and a traced run that breaks the cost down by layer.

     dune exec benchmark/macro.exe -- [--workload NAME|all] [--seed N]
         [--seconds N] [--trace 0|1 | --traced] [--out FILE]
     dune exec benchmark/macro.exe -- --smoke

   Every number is per application delivery (an [on_data] upcall at a
   group member).  Each workload runs in a process of its own, so that
   its peak RSS is its own; [--workload all] runs them one after another
   by re-executing this program.  A workload's output ends with one JSON
   object {correct, attempted, failed, metrics}, after a header line
   naming the workload; the exit code is 1 on any correctness violation.
   Runs from the repository root append a line to
   benchmark/history.jsonl.  See benchmark/README.md for the workloads,
   the metric definitions and how to compare two commits. *)

module W = Workload
module Service = Plwg.Service
open Plwg_sim

let fanout =
  {
    W.name = "fanout";
    backend = W.Sim;
    mode = Service.Direct;
    sets = 8;
    per_set = 32;
    rate_hz = 50;
    window = Time.sec 5;
    cycles = 0;
    instances = 8;
  }

let workloads =
  [
    fanout;
    { fanout with W.name = "multiplex"; mode = Service.Dynamic };
    {
      W.name = "partition_heal";
      backend = W.Sim;
      mode = Service.Dynamic;
      sets = 4;
      per_set = 16;
      rate_hz = 10;
      window = Time.sec 20;
      cycles = 10;
      (* its reconcile races vary more from seed to seed *)
      instances = 16;
    };
    { fanout with W.name = "fanout_domains"; backend = W.Domains };
  ]

(* Wall seconds of repetitions per workload: the run length the bounds
   in BENCHMARK.json were measured at. *)
let default_seconds = 25

(* About a second of wall time per repetition, every check still on. *)
let smoke_spec (s : W.spec) = { s with W.sets = 2; per_set = 4; window = Time.sec 1; cycles = min s.W.cycles 2 }

(* The smoke's allocation gate on fanout's median allocs_per_delivery:
   82.2 words per delivery when it was set. *)
let max_allocs = 100.

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* How a run summarises a metric.  A run cycles through its workload's
   seeded instances; results in simulated time are a function of the
   instance alone, so a run combines its instances, which evens out the
   seed-to-seed variation of the protocol's races.  Quantiles are taken
   over the samples of every instance together; a single slow instance
   then moves them by its share of the samples only. *)
type summary =
  | Wall  (** median over every repetition *)
  | Instances  (** median over the instances *)
  | Pooled of (W.rep -> int array) * float  (** quantile of all instances' samples, µs to ms *)

type metric = {
  name : string;
  unit : string;
  summary : summary;
  checked : bool;  (** a function of the instance alone: equal across its repetitions, traced or not *)
  value : W.rep -> float;  (** one repetition's value *)
}

let per_delivery x (r : W.rep) = x /. float_of_int (max 1 r.W.deliveries)

let pooled name samples q =
  {
    name;
    unit = "ms";
    summary = Pooled (samples, q);
    checked = true;
    value = (fun r -> Stats.quantile (samples r) q /. 1000.);
  }

let end_to_end =
  [
    {
      name = "deliveries_per_wall_s";
      unit = "1/s";
      summary = Wall;
      checked = false;
      value = (fun r -> float_of_int r.W.deliveries /. (float_of_int r.W.window.W.wall_ns /. 1e9));
    };
    pooled "latency_p50_ms" (fun r -> r.W.latency_us) 0.5;
    pooled "latency_p99_ms" (fun r -> r.W.latency_us) 0.99;
    pooled "latency_p999_ms" (fun r -> r.W.latency_us) 0.999;
    pooled "converge_p50_ms" (fun r -> r.W.converge_us) 0.5;
    pooled "converge_p95_ms" (fun r -> r.W.converge_us) 0.95;
    {
      name = "wire_msgs_per_delivery";
      unit = "msgs/delivery";
      summary = Instances;
      checked = true;
      value = (fun r -> per_delivery (float_of_int r.W.window.W.wire) r);
    };
    {
      name = "allocs_per_delivery";
      unit = "words/delivery";
      summary = Instances;
      checked = false;
      value = (fun r -> per_delivery r.W.window.W.minor_words r);
    };
    { name = "setup_s"; unit = "s"; summary = Wall; checked = false; value = (fun r -> r.W.setup_s) };
  ]

let instance_seed (spec : W.spec) seed i = (seed * spec.W.instances) + i

let per_layer_units =
  let fam suffix unit = Array.to_list (Array.map (fun f -> (Printf.sprintf "%s.%s" f suffix, unit)) Shim.families) in
  List.concat_map
    (fun l -> [ ("ladder." ^ l ^ ".ns_per_delivery", "ns/delivery"); ("ladder." ^ l ^ ".words_per_delivery", "words/delivery") ])
    [ "runtime"; "transport"; "hwg"; "lwg" ]
  @ [
      ("runtime.self_ns_per_delivery", "ns/delivery");
      ("recv.ns_per_delivery", "ns/delivery");
      ("timer.ns_per_delivery", "ns/delivery");
      ("send.ns_per_delivery", "ns/delivery");
      ("lwg.send_call_ns.p50", "ns");
    ]
  @ List.map (fun (n, u) -> ("wire." ^ n, u)) (fam "per_delivery" "msgs/delivery")
  @ List.map (fun (n, u) -> ("recv." ^ n, u)) (fam "ns_per_msg" "ns/msg")
  @ [
      ("transport.retransmits", "count");
      ("transport.conn_resets", "count");
      ("transport.peak_unacked", "msgs");
      ("hwg.flushes_started", "count");
      ("hwg.views_installed", "count");
      ("hwg.flush_us.p50", "us");
      ("hwg.flush_us.p99", "us");
      ("hwg.peak_store", "msgs");
      ("lwg.switches", "count");
      ("lwg.merges", "count");
      ("lwg.mapping_reconciliations", "count");
      ("lwg.local_discoveries", "count");
      ("policy.share", "count");
      ("policy.interference", "count");
      ("policy.shrink", "count");
      ("ns.requests", "count");
      ("ns.retry_ratio", "ratio");
      ("ns.give_ups", "count");
      ("ns.rtt_us.p50", "us");
      ("ns.rtt_us.p99", "us");
      ("ns.multiple_mappings", "count");
      ("ns.gossip_rounds", "count");
      ("detector.transitions", "count");
      ("reconcile.hwg_merged_ms.p50", "ms");
      ("partition_heal.cycle_wall_ms.first_q", "ms");
      ("partition_heal.cycle_wall_ms.last_q", "ms");
      ("partition_heal.live_words_per_cycle", "words");
      ("partition_heal.undelivered_sends", "msgs");
      ("partition_heal.repartitions", "count");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_words_per_delivery", "words/delivery");
      ("domains.busy_frac", "ratio");
      ("domains.busy_frac_min", "ratio");
      ("domains.cross_frac", "ratio");
      ("domains.events_per_window", "events");
      ("tracing.overhead", "ratio");
    ]

(* Peak resident set of this process (VmHWM). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
        | None -> 0.
      in
      scan ())

(* Deterministic metrics must not depend on the repetition or on the
   shim: any difference is a determinism bug (or a shim that changed
   what it wraps). *)
let same_sim_time ~what (a : W.rep) (b : W.rep) =
  List.filter_map
    (fun (m : metric) ->
      let x = m.value a and y = m.value b in
      if m.checked && not (Float.equal x y) then Some (Printf.sprintf "%s: %s %.17g <> %.17g" what m.name x y)
      else None)
    end_to_end
  @
  if a.W.attempted <> b.W.attempted || a.W.failed <> b.W.failed then
    [ Printf.sprintf "%s: attempted/failed %d/%d <> %d/%d" what a.W.attempted a.W.failed b.W.attempted b.W.failed ]
  else []

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let json_str s = Printf.sprintf "%S" s

type value = {
  metric : string;
  unit : string;
  value : float;  (** what the run reports *)
  samples : float list;  (** per repetition (wall clock) or per instance *)
}

type result = {
  workload : string;
  trace : bool;
  reps : int;
  correct : bool;
  attempted : int;
  failed : int;
  violations : string list;
  values : value list;
}

let result_line r =
  let metrics =
    List.map
      (fun v -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str v.metric) (json_num v.value) (json_str v.unit))
      r.values
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct r.attempted r.failed
    (String.concat ", " metrics)

let summary_json r =
  let metrics =
    List.map
      (fun v ->
        Printf.sprintf "%s: {\"value\": %s, \"median\": %s, \"min\": %s, \"iqr\": %s, \"unit\": %s}"
          (json_str v.metric) (json_num v.value)
          (json_num (Stats.median v.samples))
          (json_num (Stats.minimum v.samples))
          (json_num (Stats.iqr v.samples))
          (json_str v.unit))
      r.values
  in
  Printf.sprintf
    "\"workload\": %s, \"trace\": %d, \"reps\": %d, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}"
    (json_str r.workload) (if r.trace then 1 else 0) r.reps r.correct r.attempted r.failed (String.concat ", " metrics)

let print_result r =
  Printf.printf "\n== %s (%s, %d rep%s): %s, %d attempted, %d failed (failed_ratio %.3g)\n" r.workload
    (if r.trace then "traced" else "untraced")
    r.reps
    (if r.reps = 1 then "" else "s")
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  List.iter (fun v -> Printf.printf "  violation: %s\n" v) r.violations;
  List.iter
    (fun v ->
      match v.samples with
      | _ :: _ :: _ ->
          Printf.printf "  %-40s %14.6g %-15s (%d samples, IQR %.3g, min %.6g)\n" v.metric v.value v.unit
            (List.length v.samples) (Stats.iqr v.samples) (Stats.minimum v.samples)
      | [] | [ _ ] -> Printf.printf "  %-40s %14.6g %s\n" v.metric v.value v.unit)
    r.values

let commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with Unix.WEXITED 0 when line <> "" -> line | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

(* One line per workload run, so a regression shows up as a step.  Only
   when run from the repository root, where the file lives. *)
let append_history ~seed r =
  if Sys.file_exists "benchmark" && Sys.is_directory "benchmark" then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 "benchmark/history.jsonl" in
    Printf.fprintf oc "{\"commit\": %s, \"seed\": %d, %s}\n" (json_str (commit ())) seed (summary_json r);
    close_out oc
  end

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let conclude ~workload ~trace ~reps ~attempted ~failed ~violations values =
  { workload; trace; reps; correct = List.is_empty violations; attempted; failed; violations; values }

(* Untraced: fresh-stack repetitions, cycling through the instances,
   until [seconds] of wall time is spent (at least one per instance).
   Later repetitions of an instance are checked against its first and
   keep only their wall-clock results. *)
let untraced (spec : W.spec) ~seed ~seconds =
  let k = spec.W.instances in
  let t0 = Shim.clock_ns () and budget = seconds * 1_000_000_000 in
  let rep i = W.rep spec ~seed:(instance_seed spec seed (i mod k)) ~traced:false in
  let first = rep 0 in
  (* The footprint of one run of the workload in a fresh process: later
     repetitions start from a heap the runtime never returns to the OS,
     so a peak over them would grow with their number. *)
  let rss = peak_rss_mb () in
  let firsts = Array.make k first in
  let rec go acc differ n =
    let elapsed = Shim.clock_ns () - t0 in
    if n >= k && elapsed + (elapsed / n) > budget then (List.rev acc, differ)
    else
      let r = rep n in
      if n < k then begin
        firsts.(n) <- r;
        go (r :: acc) differ (n + 1)
      end
      else
        let d = same_sim_time ~what:"repetitions differ" firsts.(n mod k) r in
        go ({ r with W.latency_us = [||]; converge_us = [||] } :: acc) (differ @ d) (n + 1)
  in
  let reps, differ = go [ first ] [] 1 in
  let per_instance = Array.to_list firsts in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 per_instance in
  let summarise (m : metric) =
    let samples = List.map m.value (match m.summary with Wall -> reps | Instances | Pooled _ -> per_instance) in
    let value =
      match m.summary with
      | Wall | Instances -> Stats.median samples
      | Pooled (get, q) ->
          let all = Array.concat (List.map get per_instance) in
          Stats.quantile (Stats.sort_prefix all (Array.length all)) q /. 1000.
    in
    { metric = m.name; unit = m.unit; value; samples }
  in
  conclude ~workload:spec.W.name ~trace:false ~reps:(List.length reps)
    ~attempted:(total (fun r -> r.W.attempted))
    ~failed:(total (fun r -> r.W.failed))
    ~violations:(List.concat_map (fun r -> r.W.violations) reps @ differ)
    (List.map summarise end_to_end @ [ { metric = "peak_rss_mb"; unit = "MB"; value = rss; samples = [ rss ] } ])

(* Traced: one untraced and one traced repetition of the first instance
   (after a discarded one, so neither pays for the process warming up),
   then the three ladder rows (untraced). *)
let traced (spec : W.spec) ~seed =
  let seed = instance_seed spec seed 0 in
  let (_ : W.rep) = W.rep spec ~seed ~traced:false in
  let plain = W.rep spec ~seed ~traced:false in
  let shimmed = W.rep spec ~seed ~traced:true in
  let row r = W.ladder_row spec ~seed r in
  let (r1_ns, r1_w), (r2_ns, r2_w), (r3_ns, r3_w) = (row W.Runtime_row, row W.Transport_row, row W.Hwg_row) in
  let top_ns = float_of_int plain.W.window.W.wall_ns /. float_of_int plain.W.deliveries in
  let top_w = plain.W.window.W.minor_words /. float_of_int plain.W.deliveries in
  let dps r = (List.hd end_to_end).value r in
  let ladder =
    List.concat_map
      (fun (l, ns, w) -> [ ("ladder." ^ l ^ ".ns_per_delivery", ns); ("ladder." ^ l ^ ".words_per_delivery", w) ])
      [
        ("runtime", r1_ns, r1_w);
        ("transport", r2_ns -. r1_ns, r2_w -. r1_w);
        ("hwg", r3_ns -. r2_ns, r3_w -. r2_w);
        ("lwg", top_ns -. r3_ns, top_w -. r3_w);
      ]
  in
  let measured =
    plain.W.layers @ shimmed.W.shim_layers @ ladder @ [ ("tracing.overhead", 1. -. (dps shimmed /. dps plain)) ]
  in
  let value name = Option.value ~default:0. (List.assoc_opt name measured) in
  conclude ~workload:spec.W.name ~trace:true ~reps:1 ~attempted:plain.W.attempted ~failed:plain.W.failed
    ~violations:(plain.W.violations @ shimmed.W.violations @ same_sim_time ~what:"traced run differs" plain shimmed)
    (List.map (fun (metric, unit) -> { metric; unit; value = value metric; samples = [ value metric ] }) per_layer_units)

(* The smoke: every workload shrunk to about a second, two untraced
   repetitions and one traced at the same seed (all must agree on every
   simulated-time metric), and the allocation gate on fanout's median
   [allocs_per_delivery]. *)
let smoke ~seed =
  let ok = ref true in
  List.iter
    (fun (spec : W.spec) ->
      let s = smoke_spec spec in
      let seed = instance_seed s seed 0 in
      let a = W.rep s ~seed ~traced:false and b = W.rep s ~seed ~traced:false in
      let t = W.rep s ~seed ~traced:true in
      let violations =
        a.W.violations @ b.W.violations @ t.W.violations
        @ same_sim_time ~what:"repeated smoke run differs" a b
        @ same_sim_time ~what:"traced smoke run differs" a t
      in
      let allocs = Stats.median (List.map (fun r -> per_delivery r.W.window.W.minor_words r) [ a; b ]) in
      Printf.printf "smoke %-15s %7d deliveries, %d/%d failed, latency p50 %.3f ms, %.1f allocs/delivery%s\n"
        s.W.name a.W.deliveries a.W.failed a.W.attempted
        (Stats.quantile a.W.latency_us 0.5 /. 1000.)
        allocs
        (if List.is_empty violations then "" else " INCORRECT");
      List.iter (fun v -> Printf.printf "  violation: %s\n" v) violations;
      if (not (List.is_empty violations)) || a.W.failed > 0 then ok := false;
      if String.equal s.W.name fanout.W.name then
        if allocs > max_allocs then begin
          Printf.printf "  allocation gate: %.1f words/delivery > %.0f\n" allocs max_allocs;
          ok := false
        end
        else Printf.printf "  allocation gate: %.1f words/delivery <= %.0f\n" allocs max_allocs)
    workloads;
  !ok

let snapshot ~seed runs =
  Printf.sprintf "{\"schema\": \"plwg-benchmark/2\", \"commit\": %s, \"seed\": %d, \"runs\": [%s]}\n"
    (json_str (commit ())) seed
    (String.concat ", "
       (List.map (fun (workload, line) -> Printf.sprintf "{\"workload\": %s, \"result\": %s}" (json_str workload) line) runs))

(* [--workload all]: each workload in a fresh process of this program,
   its output passed through.  Returns each workload's result line (null
   if it printed none) and whether every run exited with 0. *)
let run_each names ~seed ~seconds ~trace =
  let results =
    List.map
      (fun name ->
        let args =
          [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
             "--trace"; string_of_int trace |]
        in
        flush stdout;
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let last = ref "null" in
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             if String.starts_with ~prefix:"{" line then last := line
           done
         with End_of_file -> ());
        let ok = match Unix.close_process_in ic with Unix.WEXITED 0 -> true | _ -> false in
        ((name, !last), ok))
      names
  in
  (List.map fst results, List.for_all snd results)

let () =
  let workload = ref "all" and seed = ref 7 and seconds = ref default_seconds and trace = ref 0 in
  let smoke_mode = ref false and out = ref "" in
  let names = List.map (fun s -> s.W.name) workloads in
  let spec =
    [
      ("--workload", Arg.Symbol ("all" :: names, fun w -> workload := w), " workload to run (default all)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 7)");
      ( "--seconds",
        Arg.Set_int seconds,
        Printf.sprintf "N wall seconds of repetitions per workload (default %d; at least one per instance)"
          default_seconds );
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun t -> trace := int_of_string t), " 1: traced run, per-layer metrics");
      ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--out", Arg.Set_string out, "FILE also write the result lines of this invocation to FILE");
      ("--smoke", Arg.Set smoke_mode, " shrunk workloads with every check on");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "macro [options]";
  if !smoke_mode then exit (if smoke ~seed:!seed then 0 else 1);
  let runs, ok =
    match List.find_opt (fun s -> String.equal s.W.name !workload) workloads with
    | None -> run_each names ~seed:!seed ~seconds:!seconds ~trace:!trace
    | Some spec ->
        let r = if !trace = 1 then traced spec ~seed:!seed else untraced spec ~seed:!seed ~seconds:!seconds in
        print_result r;
        append_history ~seed:!seed r;
        let line = result_line r in
        print_endline line;
        ([ (spec.W.name, line) ], r.correct)
  in
  if !out <> "" then Out_channel.with_open_text !out (fun oc -> output_string oc (snapshot ~seed:!seed runs));
  if not ok then exit 1
