(* Trace-driven invariant checking.

   The checks replay a trace (oldest first), in process or loaded from
   a JSONL dump, and verify the protocol's guarantees: partitionable
   virtual synchrony at both group layers, that no application DATA
   crossed a partition, that every [Flush_begin] is eventually closed
   by a [Flush_end], and the Section-6 reconcile order. *)

open Plwg_obs
module View_id = Plwg_vsync.Types.View_id

(* A ring that overwrote entries holds a suffix of the run: a check
   over it could pass only because the evidence was lost. *)
let truncated sink = Printf.sprintf "trace truncated: %d entries dropped" (Sink.dropped sink)
let entries sink = if Sink.dropped sink > 0 then failwith (truncated sink) else Sink.to_list sink
let check_sink check sink = if Sink.dropped sink > 0 then [ truncated sink ] else check (Sink.to_list sink)

(* the ids the cross-partition check indexes by *)
let n_nodes_of entries =
  List.fold_left
    (fun n { Event.event; _ } ->
      match event with
      | Event.Msg_delivered { src; dst; _ } | Event.Msg_dropped { src; dst; _ } -> max n (1 + max src dst)
      | Event.Partition_changed { classes } -> List.fold_left (List.fold_left (fun n m -> max n (m + 1))) n classes
      | _ -> n)
    0 entries

(* ------------------------------------------------------------------ *)
(* Virtual synchrony                                                   *)
(* ------------------------------------------------------------------ *)

(* The two layers draw group ids independently, so a group is keyed
   by its layer too ("lwg g1.n0"); a view id by its seq-major code. *)
let group_key layer group = Event.layer_to_string layer ^ " " ^ group
let view_code seq coord = View_id.code { View_id.seq; coord }

let show_view code =
  let { View_id.seq; coord } = View_id.of_code code in
  Printf.sprintf "v%d@n%d" seq coord

let show_members members = "[" ^ String.concat ";" (List.map (Printf.sprintf "n%d") members) ^ "]"

type install = { node : int; group : string; view : int; members : int list }
type delivery = { node : int; group : string; view : int; origin : int; local_id : int }

let installs entries : install list =
  List.filter_map
    (fun { Event.event; _ } ->
      match event with
      | Event.View_installed { layer; node; group; view_seq; view_coord; members } ->
          Some { node; group = group_key layer group; view = view_code view_seq view_coord; members }
      | _ -> None)
    entries

let deliveries entries : delivery list =
  List.filter_map
    (fun { Event.event; _ } ->
      match event with
      | Event.Group_delivered { layer; node; group; view_seq; view_coord; origin; local_id } ->
          Some { node; group = group_key layer group; view = view_code view_seq view_coord; origin; local_id }
      | _ -> None)
    entries

let installs_of ~layer ~node ~group entries =
  List.filter
    (fun { Event.event; _ } ->
      match event with
      | Event.View_installed i -> i.layer = layer && i.node = node && String.equal i.group group
      | _ -> false)
    entries

let check_self_inclusion entries =
  List.filter_map
    (fun (i : install) ->
      if List.mem i.node i.members then None
      else
        Some
          (Printf.sprintf "n%d installed %s of %s with members %s, which does not contain it" i.node
             (show_view i.view) i.group (show_members i.members)))
    (installs entries)

let check_view_agreement entries =
  let first = Hashtbl.create 64 in
  List.filter_map
    (fun (i : install) ->
      match Hashtbl.find_opt first (i.group, i.view) with
      | None ->
          Hashtbl.add first (i.group, i.view) i.members;
          None
      | Some members when List.equal Int.equal members i.members -> None
      | Some members ->
          Some
            (Printf.sprintf "view %s of %s installed with members %s at n%d but %s elsewhere" (show_view i.view)
               i.group (show_members i.members) i.node (show_members members)))
    (installs entries)

(* Per (node, group), the views it installed in each membership, both
   oldest first: a process that leaves ([Group_left]) and joins again
   is a new member, and the per-process invariants apply within one
   membership. *)
let memberships entries =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun { Event.event; _ } ->
      match event with
      | Event.View_installed { layer; node; group; view_seq; view_coord; _ } -> (
          let key = (node, group_key layer group) and view = view_code view_seq view_coord in
          match Hashtbl.find_opt tbl key with
          | Some (current :: older) -> Hashtbl.replace tbl key ((view :: current) :: older)
          | Some [] | None -> Hashtbl.replace tbl key [ [ view ] ])
      | Event.Group_left { layer; node; group } -> (
          let key = (node, group_key layer group) in
          match Hashtbl.find_opt tbl key with Some ms -> Hashtbl.replace tbl key ([] :: ms) | None -> ())
      | _ -> ())
    entries;
  Plwg_util.Tbl.fold_sorted
    ~cmp:(fun (na, ga) (nb, gb) -> if na <> nb then Int.compare na nb else String.compare ga gb)
    (fun key ms acc -> (key, List.rev_map List.rev ms) :: acc)
    tbl []

let group_installs entries =
  List.concat_map (fun (key, ms) -> List.map (fun views -> (key, views)) ms) (memberships entries)

(* consecutive pairs of a list *)
let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | [ _ ] | [] -> []

let check_local_monotonicity entries =
  List.concat_map
    (fun ((node, group), views) ->
      List.filter_map
        (fun (a, b) ->
          if (View_id.of_code b).View_id.seq > (View_id.of_code a).View_id.seq then None
          else Some (Printf.sprintf "n%d/%s installed %s after %s (seq not increasing)" node group (show_view b) (show_view a)))
        (pairs views))
    (group_installs entries)

let check_view_id_unique_per_change entries =
  List.concat_map
    (fun ((node, group), views) ->
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun view ->
          if Hashtbl.mem seen view then Some (Printf.sprintf "n%d/%s installed %s twice" node group (show_view view))
          else begin
            Hashtbl.add seen view ();
            None
          end)
        views)
    (group_installs entries)

(* A new member's local ids start over, so a message also names its
   sender's membership: the one in which the sender installed the view
   the message was delivered in (sent in); [-1] if it never did. *)
let sender_incarnation entries =
  let of_view = Hashtbl.create 256 in
  List.iter
    (fun (key, ms) -> List.iteri (fun i views -> List.iter (fun v -> Hashtbl.replace of_view (key, v) i) views) ms)
    (memberships entries);
  fun (d : delivery) -> try Hashtbl.find of_view ((d.origin, d.group), d.view) with Not_found -> -1

let check_no_duplicate_delivery entries =
  let incarnation = sender_incarnation entries and seen = Hashtbl.create 256 in
  List.filter_map
    (fun (d : delivery) ->
      let key = (d.node, d.group, d.origin, incarnation d, d.local_id) in
      if Hashtbl.mem seen key then
        Some (Printf.sprintf "n%d delivered message n%d/#%d of %s twice" d.node d.origin d.local_id d.group)
      else begin
        Hashtbl.add seen key ();
        None
      end)
    (deliveries entries)

let check_fifo entries =
  let incarnation = sender_incarnation entries and last = Hashtbl.create 256 in
  List.filter_map
    (fun (d : delivery) ->
      let key = (d.node, d.group, d.origin, incarnation d) in
      let previous = try Hashtbl.find last key with Not_found -> -1 in
      Hashtbl.replace last key d.local_id;
      if d.local_id > previous then None
      else
        Some
          (Printf.sprintf "n%d delivered n%d/#%d of %s after #%d (FIFO violation)" d.node d.origin d.local_id d.group
             previous))
    (deliveries entries)

(* messages as (origin, local id) *)
let compare_msg (oa, la) (ob, lb) = if oa <> ob then Int.compare oa ob else Int.compare la lb
let equal_msg a b = compare_msg a b = 0

let check_virtual_synchrony entries =
  (* what each node delivered in each view, by the view the messages
     were tagged with *)
  let delivered_in = Hashtbl.create 256 in
  List.iter
    (fun (d : delivery) ->
      let key = (d.node, d.group, d.view) in
      let sofar = try Hashtbl.find delivered_in key with Not_found -> [] in
      Hashtbl.replace delivered_in key ((d.origin, d.local_id) :: sofar))
    (deliveries entries);
  (* key: (group, V, V') for consecutive installs; value: the nodes that
     made that transition, with what each delivered in V *)
  let transitions = Hashtbl.create 64 in
  List.iter
    (fun ((node, group), views) ->
      List.iter
        (fun (a, b) ->
          let segment = try List.sort compare_msg (Hashtbl.find delivered_in (node, group, a)) with Not_found -> [] in
          let bucket = try Hashtbl.find transitions (group, a, b) with Not_found -> [] in
          Hashtbl.replace transitions (group, a, b) ((node, segment) :: bucket))
        (pairs views))
    (group_installs entries);
  Plwg_util.Tbl.fold_sorted
    ~cmp:(fun (ga, va, va') (gb, vb, vb') ->
      let c = String.compare ga gb in
      if c <> 0 then c else if va <> vb then Int.compare va vb else Int.compare va' vb')
    (fun (group, v, v') bucket acc ->
      match bucket with
      | [] | [ _ ] -> acc
      | (first_node, first_segment) :: rest ->
          List.fold_left
            (fun acc (node, segment) ->
              if List.equal equal_msg segment first_segment then acc
              else
                Printf.sprintf "virtual synchrony violated in %s between %s and %s: n%d delivered %d messages, n%d delivered %d"
                  group (show_view v) (show_view v') first_node (List.length first_segment) node (List.length segment)
                :: acc)
            acc rest)
    transitions []

let check_total_order ~layer ~group entries =
  let group = group_key layer group in
  (* per view, per node: the order of deliveries; all must be prefix-compatible *)
  let orders = Hashtbl.create 16 in
  List.iter
    (fun (d : delivery) ->
      if String.equal d.group group then begin
        let bucket = try Hashtbl.find orders d.view with Not_found -> [] in
        let sofar = try List.assoc d.node bucket with Not_found -> [] in
        Hashtbl.replace orders d.view ((d.node, (d.origin, d.local_id) :: sofar) :: List.remove_assoc d.node bucket)
      end)
    (deliveries entries);
  let rec prefix_compatible = function
    | x :: xs, y :: ys -> equal_msg x y && prefix_compatible (xs, ys)
    | [], _ | _, [] -> true
  in
  Plwg_util.Tbl.fold_sorted ~cmp:Int.compare
    (fun view bucket acc ->
      match List.map (fun (node, rev) -> (node, List.rev rev)) bucket with
      | [] | [ _ ] -> acc
      | (first_node, first_seq) :: rest ->
          List.fold_left
            (fun acc (node, sequence) ->
              if prefix_compatible (first_seq, sequence) then acc
              else
                Printf.sprintf "total order violated in %s view %s between n%d and n%d" group (show_view view)
                  first_node node
                :: acc)
            acc rest)
    orders []

let check_vs entries =
  check_self_inclusion entries @ check_view_agreement entries @ check_local_monotonicity entries
  @ check_view_id_unique_per_change entries @ check_no_duplicate_delivery entries @ check_fifo entries
  @ check_virtual_synchrony entries

(* ------------------------------------------------------------------ *)
(* Flush pairing                                                       *)
(* ------------------------------------------------------------------ *)

(* Every Flush_begin must be matched by exactly one Flush_end for the
   same (node, group, epoch), and no Flush_end may appear without its
   begin.  [allow_open] tolerates flushes still in progress when the
   trace was cut (e.g. a run stopped mid-change, or a coordinator that
   crashed and could never close its change). *)
let check_flush_pairing ?(allow_open = false) entries =
  let open_flushes = Hashtbl.create 32 in
  let violations = ref [] in
  List.iter
    (fun { Event.at_us; event } ->
      match event with
      | Event.Flush_begin { node; group; epoch } ->
          let key = (node, group, epoch) in
          if Hashtbl.mem open_flushes key then
            violations :=
              Printf.sprintf "duplicate flush-begin n%d %s e%d at %dus" node group epoch at_us :: !violations
          else Hashtbl.replace open_flushes key at_us
      | Event.Flush_end { node; group; epoch; outcome } ->
          let key = (node, group, epoch) in
          if Hashtbl.mem open_flushes key then Hashtbl.remove open_flushes key
          else
            violations :=
              Printf.sprintf "flush-end (%s) without begin n%d %s e%d at %dus" outcome node group epoch at_us
              :: !violations
      | _ -> ())
    entries;
  if not allow_open then
    Plwg_util.Tbl.iter_sorted
      ~cmp:(fun (na, ga, ea) (nb, gb, eb) ->
        let c = Int.compare na nb in
        if c <> 0 then c
        else
          let c = String.compare ga gb in
          if c <> 0 then c else Int.compare ea eb)
      (fun (node, group, epoch) at_us ->
        violations :=
          Printf.sprintf "flush-begin never closed n%d %s e%d (opened at %dus)" node group epoch at_us :: !violations)
      open_flushes;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* No DATA across a partition                                          *)
(* ------------------------------------------------------------------ *)

(* A substring test that allocates nothing: it runs on every traced
   delivery the chaos oracle scans. *)
let data_kind = "hw-data"

let rec data_at kind i j =
  j = String.length data_kind || (Char.equal kind.[i + j] data_kind.[j] && data_at kind i (j + 1))

let rec data_from kind i =
  i + String.length data_kind <= String.length kind && (data_at kind i 0 || data_from kind (i + 1))

let is_data kind = data_from kind 0

(* Rebuild the component assignment over time from the Partition/Heal
   events, then flag every application DATA delivery whose endpoints
   were disconnected both when the message was sent and when it was
   delivered.  A message sent while connected but delivered just after
   a cut is the benign in-NIC race the engine permits (the segment was
   already through the wire and queued on the destination's CPU); one
   that was disconnected at both instants had no legitimate path. *)
let check_no_cross_partition_delivery ~n_nodes entries =
  let comp = Array.make n_nodes 0 in
  (* snapshots newest-first; the initial state covers all earlier times *)
  let snapshots = ref [ (min_int, Array.copy comp) ] in
  let snapshot_at at =
    let rec find = function
      | (time, snap) :: rest -> if time <= at then snap else find rest
      | [] -> assert false
    in
    find !snapshots
  in
  let connected_at at src dst =
    let snap = snapshot_at at in
    snap.(src) = snap.(dst)
  in
  let violations = ref [] in
  List.iter
    (fun { Event.at_us; event } ->
      match event with
      | Event.Partition_changed { classes } ->
          List.iteri (fun class_id members -> List.iter (fun node -> comp.(node) <- class_id) members) classes;
          snapshots := (at_us, Array.copy comp) :: !snapshots
      | Event.Healed ->
          Array.fill comp 0 n_nodes 0;
          snapshots := (at_us, Array.copy comp) :: !snapshots
      | Event.Msg_delivered { src; dst; kind; latency_us } when src <> dst && is_data kind ->
          let sent_at = at_us - latency_us in
          if (not (connected_at at_us src dst)) && not (connected_at sent_at src dst) then
            violations :=
              Printf.sprintf "DATA delivered across partition n%d -> n%d at %dus (sent %dus): %s" src dst at_us
                sent_at kind
              :: !violations
      | _ -> ())
    entries;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Reconciliation order (Section 6)                                    *)
(* ------------------------------------------------------------------ *)

let paper_order =
  [ Event.Global_discovery; Event.Mapping_reconciliation; Event.Local_discovery; Event.Merge_views ]

(* Reconciliation in the paper's sense starts when the partition heals;
   merges that run while the system is still partitioned (concurrent
   views met at group setup, or a switch within one side) are ordinary
   operation, not part of the Section-6 sequence.  Keep only the suffix
   after the last Healed event (the whole trace if there is none). *)
let after_last_heal entries =
  List.fold_left
    (fun acc ({ Event.event; _ } as entry) ->
      match event with Event.Healed -> [] | _ -> entry :: acc)
    [] entries
  |> List.rev

(* Reconcile steps in order of first occurrence after the last heal. *)
let reconcile_sequence entries =
  let seen = ref [] in
  List.iter
    (fun { Event.event; _ } ->
      match event with
      | Event.Reconcile_step { step; _ } -> if not (List.mem step !seen) then seen := step :: !seen
      | _ -> ())
    (after_last_heal entries);
  List.rev !seen

(* The steps that occur must first occur in the paper's order (a step
   may be absent: e.g. a pure same-HWG partition heal skips the naming
   steps and goes straight to local discovery). *)
let check_reconcile_order entries =
  let sequence = reconcile_sequence entries in
  let rec subseq sub full =
    match (sub, full) with
    | [], _ -> true
    | _, [] -> false
    | s :: sub', f :: full' -> if s = f then subseq sub' full' else subseq sub full'
  in
  if subseq sequence paper_order then []
  else
    [
      Printf.sprintf "reconcile steps out of paper order: %s"
        (String.concat " -> " (List.map Event.reconcile_step_to_string sequence));
    ]

let check_all ?allow_open ~n_nodes entries =
  check_vs entries
  @ check_flush_pairing ?allow_open entries
  @ check_no_cross_partition_delivery ~n_nodes entries
  @ check_reconcile_order entries
