(* Tests for the partitionable naming service: database semantics
   (lineage GC, conflicts, merge), replica gossip, client retry, and the
   MULTIPLE-MAPPINGS callback across a partition/heal cycle. *)

open Plwg_sim
module Sim_rt = Plwg_runtime.Sim_rt
open Plwg_vsync.Types
module Db = Plwg_naming.Db
module Server = Plwg_naming.Server
module Client = Plwg_naming.Client
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector

let gid seq origin = { Gid.seq; origin }
let vid coord seq = { View_id.coord; seq }

let entry ?(members = [ 0; 1 ]) ?(preds = []) ?hwg_view ~lwg ~lwg_view ~hwg () =
  { Db.lwg; lwg_view; members; hwg; hwg_view; preds }

let lwg_a = gid 1 0
let lwg_b = gid 2 0
let hwg_1 = gid 10 0
let hwg_2 = gid 11 0

(* ---------------- Db unit tests ---------------- *)

let test_db_set_read () =
  let db = Db.create () in
  let e = entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 () in
  Db.set db e;
  Alcotest.(check int) "one entry" 1 (List.length (Db.read db lwg_a));
  Alcotest.(check int) "other lwg empty" 0 (List.length (Db.read db lwg_b))

let test_db_set_replaces_same_view () =
  let db = Db.create () in
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ());
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_2 ());
  match Db.read db lwg_a with
  | [ e ] -> Alcotest.(check bool) "remapped" true (Gid.equal e.Db.hwg hwg_2)
  | other -> Alcotest.failf "expected 1 entry, got %d" (List.length other)

let test_db_lineage_gc () =
  let db = Db.create () in
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ());
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 5 1) ~hwg:hwg_2 ());
  Alcotest.(check int) "two concurrent views" 2 (List.length (Db.read db lwg_a));
  (* the merged view supersedes both *)
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 0 2) ~hwg:hwg_2 ~preds:[ vid 0 1; vid 5 1 ] ());
  (match Db.read db lwg_a with
  | [ e ] -> Alcotest.(check bool) "merged view survives" true (View_id.equal e.Db.lwg_view (vid 0 2))
  | other -> Alcotest.failf "expected 1 entry, got %d" (List.length other));
  Alcotest.(check bool) "old view superseded" true (Db.is_superseded db ~lwg:lwg_a (vid 0 1))

let test_db_superseded_never_revives () =
  let db = Db.create () in
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 0 2) ~hwg:hwg_2 ~preds:[ vid 0 1 ] ());
  (* a stale set of the predecessor must be ignored *)
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ());
  Alcotest.(check int) "stale entry rejected" 1 (List.length (Db.read db lwg_a))

let test_db_testset () =
  let db = Db.create () in
  let first = entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 () in
  (match Db.test_and_set db first with
  | [ e ] -> Alcotest.(check bool) "installed" true (Gid.equal e.Db.hwg hwg_1)
  | _ -> Alcotest.fail "expected the inserted entry");
  (* second testset returns the existing mapping unchanged *)
  (match Db.test_and_set db (entry ~lwg:lwg_a ~lwg_view:(vid 9 9) ~hwg:hwg_2 ()) with
  | [ e ] -> Alcotest.(check bool) "kept first mapping" true (Gid.equal e.Db.hwg hwg_1)
  | _ -> Alcotest.fail "expected one existing entry");
  Alcotest.(check int) "no second entry" 1 (List.length (Db.read db lwg_a))

let test_db_conflicts () =
  let db = Db.create () in
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ());
  Alcotest.(check bool) "single mapping fine" false (Db.conflicting db lwg_a);
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 5 1) ~hwg:hwg_2 ());
  Alcotest.(check bool) "two hwgs conflict" true (Db.conflicting db lwg_a);
  Alcotest.(check (list string)) "conflict list" [ Gid.to_string lwg_a ]
    (List.map Gid.to_string (Db.conflicts db));
  (* concurrent views on the SAME hwg are not a naming conflict *)
  let db2 = Db.create () in
  Db.set db2 (entry ~lwg:lwg_b ~lwg_view:(vid 0 1) ~hwg:hwg_1 ());
  Db.set db2 (entry ~lwg:lwg_b ~lwg_view:(vid 5 1) ~hwg:hwg_1 ());
  Alcotest.(check bool) "same hwg, no conflict" false (Db.conflicting db2 lwg_b)

let test_db_merge_union_and_gc () =
  let a = Db.create () and b = Db.create () in
  Db.set a (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ());
  Db.set b (entry ~lwg:lwg_b ~lwg_view:(vid 5 1) ~hwg:hwg_2 ());
  Alcotest.(check bool) "merge changes" true (Db.merge a b);
  Alcotest.(check int) "union" 2 (List.length (Db.lwgs a));
  Alcotest.(check bool) "idempotent" false (Db.merge a b);
  (* b learns that lwg_a's view was superseded; merging must kill it in a *)
  Db.set b (entry ~lwg:lwg_a ~lwg_view:(vid 0 2) ~hwg:hwg_1 ~preds:[ vid 0 1 ] ());
  Alcotest.(check bool) "merge applies gc" true (Db.merge a b);
  (match Db.read a lwg_a with
  | [ e ] -> Alcotest.(check bool) "only successor live" true (View_id.equal e.Db.lwg_view (vid 0 2))
  | other -> Alcotest.failf "expected 1, got %d" (List.length other))

let test_db_paper_table3 () =
  (* the exact scenario of Figure 3 / Table 3 *)
  let p = Db.create () and p' = Db.create () in
  Db.set p (entry ~lwg:lwg_a ~lwg_view:(vid 1 1) ~hwg:hwg_1 ());
  Db.set p (entry ~lwg:lwg_b ~lwg_view:(vid 2 1) ~hwg:hwg_2 ());
  Db.set p' (entry ~lwg:lwg_a ~lwg_view:(vid 4 1) ~hwg:hwg_2 ());
  Db.set p' (entry ~lwg:lwg_b ~lwg_view:(vid 5 1) ~hwg:hwg_1 ());
  ignore (Db.merge p p');
  (* merged database stores both mappings for each group *)
  Alcotest.(check int) "lwg_a has two mappings" 2 (List.length (Db.read p lwg_a));
  Alcotest.(check int) "lwg_b has two mappings" 2 (List.length (Db.read p lwg_b));
  Alcotest.(check bool) "lwg_a inconsistent" true (Db.conflicting p lwg_a);
  Alcotest.(check bool) "lwg_b inconsistent" true (Db.conflicting p lwg_b)

let test_db_snapshot_isolated () =
  let db = Db.create () in
  Db.set db (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ());
  let snap = Db.snapshot db in
  Db.set db (entry ~lwg:lwg_b ~lwg_view:(vid 0 1) ~hwg:hwg_2 ());
  Alcotest.(check int) "snapshot unchanged" 1 (List.length (Db.lwgs snap));
  Alcotest.(check int) "db changed" 2 (List.length (Db.lwgs db))

let test_db_merge_grows_superseded_only () =
  let a = Db.create () and b = Db.create () in
  Db.set a (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ());
  Db.set a (entry ~lwg:lwg_a ~lwg_view:(vid 0 3) ~hwg:hwg_1 ~preds:[ vid 0 2 ] ());
  Db.set b (entry ~lwg:lwg_a ~lwg_view:(vid 0 2) ~hwg:hwg_1 ~preds:[ vid 0 1 ] ());
  Db.set b (entry ~lwg:lwg_a ~lwg_view:(vid 0 3) ~hwg:hwg_1 ~preds:[ vid 0 2 ] ());
  (* b brings no entry a lacks, only the news that (0,1) is superseded *)
  Alcotest.(check bool) "merge changes" true (Db.merge a b);
  match Db.read a lwg_a with
  | [ e ] -> Alcotest.(check bool) "superseded entry retired" true (View_id.equal e.Db.lwg_view (vid 0 3))
  | other -> Alcotest.failf "expected 1 entry, got %d" (List.length other)

let arbitrary_entry =
  QCheck.Gen.(
    let* lwg_seq = int_range 1 3 in
    let* view_coord = int_range 0 3 in
    let* view_seq = int_range 1 5 in
    let* hwg_seq = int_range 10 12 in
    let* n_preds = int_range 0 2 in
    let* preds = list_size (return n_preds) (pair (int_range 0 3) (int_range 1 5)) in
    return
      (entry ~lwg:(gid lwg_seq 0) ~lwg_view:(vid view_coord view_seq) ~hwg:(gid hwg_seq 0)
         ~preds:(List.map (fun (c, s) -> vid c s) preds) ()))

let db_of entries =
  let db = Db.create () in
  List.iter (Db.set db) entries;
  db

(* Merge is commutative and convergent on the live sets. *)
let prop_db_merge_commutes =
  QCheck.Test.make ~name:"naming db: merge order does not matter" ~count:200
    QCheck.(pair (make Gen.(list_size (int_range 0 8) arbitrary_entry))
              (make Gen.(list_size (int_range 0 8) arbitrary_entry)))
    (fun (es1, es2) ->
      let ab = db_of es1 in
      ignore (Db.merge ab (db_of es2));
      let ba = db_of es2 in
      ignore (Db.merge ba (db_of es1));
      let dump db = List.map (fun lwg -> (lwg, List.map (fun e -> (e.Db.lwg_view, e.Db.hwg)) (Db.read db lwg))) (Db.lwgs db) in
      dump ab = dump ba)

(* [conflicts] is computed in one pass over the live entries; it must
   agree with asking [conflicting] of every LWG, and a merge repeated
   verbatim must find nothing new. *)
let prop_db_conflicts_and_merge_idempotent =
  let arbitrary_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun e -> `Set e) arbitrary_entry);
          (1, map (fun es -> `Merge es) (list_size (int_range 0 6) arbitrary_entry));
        ])
  in
  QCheck.Test.make ~name:"naming db: conflicts matches conflicting; merge idempotent" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 12) arbitrary_op))
    (fun ops ->
      let db = Db.create () in
      List.for_all
        (fun op ->
          let idempotent =
            match op with
            | `Set e ->
                Db.set db e;
                true
            | `Merge es ->
                let other = db_of es in
                ignore (Db.merge db other);
                not (Db.merge db other)
          in
          idempotent && List.equal Gid.equal (Db.conflicts db) (List.filter (Db.conflicting db) (Db.lwgs db)))
        ops)

(* ---------------- server/client integration ---------------- *)

type fixture = {
  engine : Sim_rt.t;
  servers : Server.t array;
  clients : Client.t array;
}

(* nodes 0..n_clients-1 are clients; the last two nodes are replicas *)
let setup ?(seed = 8) ~n_clients () =
  let n = n_clients + 2 in
  let engine = Sim_rt.create ~model:Model.default ~seed ~n_nodes:n () in
  let transport = Transport.create (Sim_rt.rt engine) in
  let detectors = Array.init n (fun node -> Detector.create transport node) in
  let server_nodes = [ n_clients; n_clients + 1 ] in
  let servers =
    Array.of_list
      (List.map
         (fun node ->
           Server.create ~transport ~detector:detectors.(node)
             ~peers:(List.filter (fun p -> p <> node) server_nodes)
             node)
         server_nodes)
  in
  let clients =
    Array.init n_clients (fun node ->
        Client.create ~transport ~detector:detectors.(node) ~servers:server_nodes node)
  in
  { engine; servers; clients }

let test_client_set_read () =
  let f = setup ~n_clients:2 () in
  Sim_rt.run f.engine ~until:(Time.ms 500);
  let done_set = ref false and got = ref None in
  Client.set f.clients.(0) (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ()) ~k:(fun ok -> done_set := ok);
  Sim_rt.run f.engine ~until:(Time.sec 2);
  Alcotest.(check bool) "set acked" true !done_set;
  (* after a gossip round, reads against EITHER replica see the mapping *)
  Client.read f.clients.(1) lwg_a ~k:(fun entries -> got := Some entries);
  Sim_rt.run f.engine ~until:(Time.sec 4);
  (match !got with
  | Some [ e ] -> Alcotest.(check bool) "mapping visible" true (Gid.equal e.Db.hwg hwg_1)
  | Some other -> Alcotest.failf "expected 1 entry, got %d" (List.length other)
  | None -> Alcotest.fail "no reply");
  Array.iter
    (fun server -> Alcotest.(check int) "replicated" 1 (List.length (Db.read (Server.db server) lwg_a)))
    f.servers

let test_client_read_unknown () =
  let f = setup ~n_clients:1 () in
  Sim_rt.run f.engine ~until:(Time.ms 500);
  let got = ref None in
  Client.read f.clients.(0) lwg_b ~k:(fun entries -> got := Some entries);
  Sim_rt.run f.engine ~until:(Time.sec 2);
  Alcotest.(check (option (list unit))) "empty" (Some []) (Option.map (List.map ignore) !got)

let test_client_testset_race () =
  let f = setup ~n_clients:2 () in
  Sim_rt.run f.engine ~until:(Time.sec 2);
  (* both clients race a testset; replicas have gossiped, so whoever is
     second sees the first mapping *)
  let r0 = ref None and r1 = ref None in
  Client.test_and_set f.clients.(0) (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ()) ~k:(fun e -> r0 := Some e);
  Sim_rt.run_span f.engine (Time.sec 2);
  Client.test_and_set f.clients.(1) (entry ~lwg:lwg_a ~lwg_view:(vid 1 1) ~hwg:hwg_2 ()) ~k:(fun e -> r1 := Some e);
  Sim_rt.run_span f.engine (Time.sec 2);
  (match (!r0, !r1) with
  | Some [ e0 ], Some [ e1 ] ->
      Alcotest.(check bool) "first installed" true (Gid.equal e0.Db.hwg hwg_1);
      Alcotest.(check bool) "second redirected" true (Gid.equal e1.Db.hwg hwg_1)
  | _ -> Alcotest.fail "missing replies")

let test_client_survives_server_crash () =
  let f = setup ~n_clients:1 () in
  Sim_rt.run f.engine ~until:(Time.sec 1);
  (* kill the first replica; the client must fail over to the second *)
  Sim_rt.crash f.engine (Server.node f.servers.(0));
  Sim_rt.run f.engine ~until:(Time.sec 2);
  let acked = ref false in
  Client.set f.clients.(0) (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ()) ~k:(fun ok -> acked := ok);
  Sim_rt.run f.engine ~until:(Time.sec 6);
  Alcotest.(check bool) "failover ack" true !acked;
  Alcotest.(check int) "stored at survivor" 1 (List.length (Db.read (Server.db f.servers.(1)) lwg_a))

let test_client_gives_up_with_explicit_failure () =
  (* with BOTH replicas dead, a request must not vanish silently: the
     client retries, then gives up and invokes the callback with a
     failure (false ack / empty read) *)
  let f = setup ~n_clients:1 () in
  Sim_rt.run f.engine ~until:(Time.sec 1);
  Array.iter (fun server -> Sim_rt.crash f.engine (Server.node server)) f.servers;
  Sim_rt.run f.engine ~until:(Time.sec 2);
  let set_result = ref None and read_result = ref None in
  Client.set f.clients.(0) (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ()) ~k:(fun ok -> set_result := Some ok);
  Client.read f.clients.(0) lwg_a ~k:(fun entries -> read_result := Some entries);
  Sim_rt.run f.engine ~until:(Time.sec 60);
  Alcotest.(check (option bool)) "set failed explicitly" (Some false) !set_result;
  Alcotest.(check (option (list unit))) "read failed explicitly" (Some [])
    (Option.map (List.map ignore) !read_result)

let test_multiple_mappings_callback_on_heal () =
  (* Partition the replicas; each side maps the same LWG to a different
     HWG; healing must reconcile the databases and fire the callback at
     the members. *)
  let f = setup ~n_clients:2 () in
  let server0 = Server.node f.servers.(0) and server1 = Server.node f.servers.(1) in
  let notified = ref [] in
  Array.iteri
    (fun i client ->
      Client.on_multiple_mappings client (fun lwg entries -> notified := (i, lwg, List.length entries) :: !notified))
    f.clients;
  Sim_rt.run f.engine ~until:(Time.sec 1);
  Sim_rt.set_partition f.engine [ [ 0; server0 ]; [ 1; server1 ] ];
  Sim_rt.run f.engine ~until:(Time.sec 1);
  Client.set f.clients.(0) (entry ~members:[ 0 ] ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ()) ~k:(fun _ -> ());
  Client.set f.clients.(1) (entry ~members:[ 1 ] ~lwg:lwg_a ~lwg_view:(vid 1 1) ~hwg:hwg_2 ()) ~k:(fun _ -> ());
  Sim_rt.run f.engine ~until:(Time.sec 3);
  Alcotest.(check (list unit)) "no callback during partition" [] (List.map ignore !notified);
  Sim_rt.heal f.engine;
  Sim_rt.run f.engine ~until:(Time.sec 5);
  let got_0 = List.exists (fun (i, lwg, n) -> i = 0 && Gid.equal lwg lwg_a && n = 2) !notified in
  let got_1 = List.exists (fun (i, lwg, n) -> i = 1 && Gid.equal lwg lwg_a && n = 2) !notified in
  Alcotest.(check bool) "member 0 notified" true got_0;
  Alcotest.(check bool) "member 1 notified" true got_1;
  Array.iter
    (fun server -> Alcotest.(check bool) "replica sees conflict" true (Db.conflicting (Server.db server) lwg_a))
    f.servers

let test_gc_propagates_to_replicas () =
  let f = setup ~n_clients:2 () in
  Sim_rt.run f.engine ~until:(Time.sec 1);
  Client.set f.clients.(0) (entry ~lwg:lwg_a ~lwg_view:(vid 0 1) ~hwg:hwg_1 ()) ~k:(fun _ -> ());
  Sim_rt.run f.engine ~until:(Time.sec 2);
  (* the merged view supersedes the old one *)
  Client.set f.clients.(1)
    (entry ~lwg:lwg_a ~lwg_view:(vid 0 2) ~hwg:hwg_1 ~preds:[ vid 0 1 ] ())
    ~k:(fun _ -> ());
  Sim_rt.run f.engine ~until:(Time.sec 3);
  Array.iter
    (fun server ->
      match Db.read (Server.db server) lwg_a with
      | [ e ] ->
          Alcotest.(check bool)
            (Printf.sprintf "replica %d gc'd" (Server.node server))
            true
            (View_id.equal e.Db.lwg_view (vid 0 2))
      | other -> Alcotest.failf "expected 1 live entry, got %d" (List.length other))
    f.servers

(* ---------------- merge cost and its [changed] contract ---------------- *)

(* A test-local model of [Db.merge] as a whole-state comparison: union
   every superseded set, drop what died, insert every peer entry, then
   report whether any live list (order included) or superseded set
   differs from before.  [Db.merge] tracks the change instead; the two
   must agree on the result and on the returned bool. *)
module Model = struct
  module M = Map.Make (Int)

  type t = { mutable entries : Db.entry list M.t; mutable superseded : View_id.Set.t M.t }

  let create () = { entries = M.empty; superseded = M.empty }
  let copy m = { entries = m.entries; superseded = m.superseded }
  let dead m code = Option.value (M.find_opt code m.superseded) ~default:View_id.Set.empty
  let live m code = Option.value (M.find_opt code m.entries) ~default:[]

  let drop_dead m code =
    let dead = dead m code in
    m.entries <- M.update code (Option.map (List.filter (fun e -> not (View_id.Set.mem e.Db.lwg_view dead)))) m.entries

  let order (a : Db.entry) (b : Db.entry) =
    let c = Gid.compare a.hwg b.hwg in
    if c <> 0 then c
    else
      let c = Option.compare View_id.compare a.hwg_view b.hwg_view in
      if c <> 0 then c else List.compare Node_id.compare a.members b.members

  let insert ~resolve m (e : Db.entry) =
    let code = Gid.code e.lwg in
    if not (View_id.Set.mem e.lwg_view (dead m code)) then begin
      let current = live m code in
      let e =
        match List.find_opt (fun x -> View_id.equal x.Db.lwg_view e.lwg_view) current with
        | Some existing when resolve && order existing e > 0 -> existing
        | Some _ | None -> e
      in
      m.entries <- M.add code (e :: List.filter (fun x -> not (View_id.equal x.Db.lwg_view e.lwg_view)) current) m.entries
    end

  let set m (e : Db.entry) =
    let code = Gid.code e.lwg in
    if not (List.is_empty e.preds) then begin
      m.superseded <- M.add code (View_id.Set.union (dead m code) (View_id.Set.of_list e.preds)) m.superseded;
      drop_dead m code
    end;
    insert ~resolve:false m e

  let entry_equal (a : Db.entry) (b : Db.entry) =
    Gid.equal a.lwg b.lwg && View_id.equal a.lwg_view b.lwg_view
    && List.equal Node_id.equal a.members b.members
    && Gid.equal a.hwg b.hwg
    && Option.equal View_id.equal a.hwg_view b.hwg_view
    && List.equal View_id.equal a.preds b.preds

  let merge m other =
    let before_entries = m.entries and before_superseded = m.superseded in
    m.superseded <- M.union (fun _ a b -> Some (View_id.Set.union a b)) m.superseded other.superseded;
    M.iter (fun code _ -> drop_dead m code) other.superseded;
    M.iter (fun _ es -> List.iter (insert ~resolve:true m) es) other.entries;
    not (M.equal (List.equal entry_equal) before_entries m.entries)
    || not (M.equal View_id.Set.equal before_superseded m.superseded)
end

(* Two LWGs, four coordinators, short view chains and same-view
   remappings: live lists of 2-3 concurrent entries, reordered by
   merges, are the common case. *)
let concurrent_entry =
  QCheck.Gen.(
    let* lwg_seq = int_range 1 2 in
    let* coord = int_range 0 3 in
    let* seq = int_range 1 4 in
    let* hwg_seq = int_range 10 11 in
    let* members = oneofl [ [ 0; 1 ]; [ 0; 1; 2 ]; [ 2; 3 ] ] in
    let* pred = frequency [ (4, return []); (1, map (fun c -> [ vid c (seq - 1) ]) (int_range 0 3)) ] in
    return (entry ~lwg:(gid lwg_seq 0) ~lwg_view:(vid coord seq) ~hwg:(gid hwg_seq 0) ~members ~preds:pred ()))

let prop_db_merge_changed_contract =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun e -> `Set e) concurrent_entry);
          (2, map (fun es -> `Merge es) (list_size (int_range 0 5) concurrent_entry));
          (* a peer that shares our history and adds a little (gossip) *)
          (2, map (fun es -> `Merge_grown es) (list_size (int_range 0 2) concurrent_entry));
        ])
  in
  QCheck.Test.make ~name:"naming db: merge reports exactly a changed live list or superseded set" ~count:400
    (QCheck.make QCheck.Gen.(list_size (int_range 1 20) op))
    (fun ops ->
      let db = Db.create () and model = Model.create () in
      let views = List.concat_map (fun c -> List.init 5 (fun s -> vid c s)) [ 0; 1; 2; 3 ] in
      let agree () =
        List.for_all
          (fun lwg ->
            let sorted es = List.sort (fun a b -> View_id.compare a.Db.lwg_view b.Db.lwg_view) es in
            List.equal Model.entry_equal (Db.read db lwg) (sorted (Model.live model (Gid.code lwg)))
            && List.for_all
                 (fun v ->
                   Bool.equal (Db.is_superseded db ~lwg v) (View_id.Set.mem v (Model.dead model (Gid.code lwg))))
                 views)
          [ gid 1 0; gid 2 0 ]
      in
      let merged peer peer_model = Bool.equal (Db.merge db peer) (Model.merge model peer_model) in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | `Set e ->
                Db.set db e;
                Model.set model e;
                true
            | `Merge es ->
                let peer_model = Model.create () in
                List.iter (Model.set peer_model) es;
                merged (db_of es) peer_model
            | `Merge_grown es ->
                let peer = Db.snapshot db and peer_model = Model.copy model in
                List.iter (Db.set peer) es;
                List.iter (Model.set peer_model) es;
                merged peer peer_model
          in
          ok && agree ())
        ops)

(* [n] LWGs, each with one live entry at the end of a chain of 8
   retired views. *)
let history_db n =
  let db = Db.create () in
  for i = 0 to n - 1 do
    for s = 1 to 9 do
      Db.set db (entry ~lwg:(gid (100 + i) 0) ~lwg_view:(vid 0 s) ~hwg:hwg_1 ~preds:(if s > 1 then [ vid 0 (s - 1) ] else []) ())
    done
  done;
  db

let merge_words db peer =
  let before = Gc.minor_words () in
  let changed = Db.merge db peer in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "no news, no change" false changed;
  words

(* A gossip receipt with no news costs a few words however large the
   database is: nothing is rebuilt, compared wholesale or re-inserted. *)
let test_db_merge_no_news_allocation_gate () =
  let gate n =
    let db = history_db n in
    let shared = merge_words db (Db.snapshot db) and rebuilt = merge_words db (history_db n) in
    Alcotest.(check bool) (Printf.sprintf "%d LWGs: %.0f words (snapshot peer) <= 32" n shared) true (shared <= 32.);
    Alcotest.(check bool) (Printf.sprintf "%d LWGs: %.0f words (rebuilt peer) <= 32" n rebuilt) true (rebuilt <= 32.);
    (shared, rebuilt)
  in
  let small = gate 64 and large = gate 256 in
  Alcotest.(check (pair (float 0.) (float 0.))) "cost independent of the database size" small large

let suite =
  [
    Alcotest.test_case "db set/read" `Quick test_db_set_read;
    Alcotest.test_case "db set replaces same view" `Quick test_db_set_replaces_same_view;
    Alcotest.test_case "db lineage gc" `Quick test_db_lineage_gc;
    Alcotest.test_case "db superseded never revives" `Quick test_db_superseded_never_revives;
    Alcotest.test_case "db testset" `Quick test_db_testset;
    Alcotest.test_case "db conflicts" `Quick test_db_conflicts;
    Alcotest.test_case "db merge union+gc" `Quick test_db_merge_union_and_gc;
    Alcotest.test_case "db paper table 3" `Quick test_db_paper_table3;
    Alcotest.test_case "db snapshot isolated" `Quick test_db_snapshot_isolated;
    Alcotest.test_case "db merge grows superseded only" `Quick test_db_merge_grows_superseded_only;
    QCheck_alcotest.to_alcotest prop_db_merge_commutes;
    QCheck_alcotest.to_alcotest prop_db_conflicts_and_merge_idempotent;
    Alcotest.test_case "client set/read" `Quick test_client_set_read;
    Alcotest.test_case "client read unknown" `Quick test_client_read_unknown;
    Alcotest.test_case "client testset race" `Quick test_client_testset_race;
    Alcotest.test_case "client survives server crash" `Quick test_client_survives_server_crash;
    Alcotest.test_case "client gives up with explicit failure" `Quick test_client_gives_up_with_explicit_failure;
    Alcotest.test_case "multiple-mappings callback on heal" `Quick test_multiple_mappings_callback_on_heal;
    Alcotest.test_case "gc propagates to replicas" `Quick test_gc_propagates_to_replicas;
    QCheck_alcotest.to_alcotest prop_db_merge_changed_contract;
    Alcotest.test_case "db merge with no news: allocation gate" `Quick test_db_merge_no_news_allocation_gate;
  ]
