(* Unit and property tests for Plwg_util: Rng determinism/statistics,
   the Heap reference model (test/heap.ml) the wheel is checked against,
   and the Deque/Seqbuf hot-path structures checked against naive list
   reference implementations. *)

open Plwg_util

(* The first 16 draws of three streams, pinned from the boxed-state
   implementation: the unboxed state must replay them exactly, or every
   seeded trace in the repository would change. *)
let pinned_seed0 =
  [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x6c45d188009454fL; 0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL;
    0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL; 0x3ee5789041c98ac3L; 0xf3b8488c368cb0a6L;
    0x657eecdd3cb13d09L; 0xc2d326e0055bdef6L; 0x8621a03fe0bbdb7bL; 0x8e1f7555983aa92fL; 0xb54e0f1600cc4d19L;
    0x84bb3f97971d80abL ]

let pinned_seed42 =
  [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L; 0x9bc585a244823f2L;
    0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L; 0x5705b8770b3d7dd5L; 0x9e54d738297f77aeL;
    0x3474724a775b19bfL; 0x7e348a0e451650beL; 0x836ded897f3e46e6L; 0x851f977347ed6db7L; 0xaa47e31c02e78edcL;
    0x341452c54d7c33f2L ]

let pinned_stream7_3 =
  [ 0xba42f571ab5a9e30L; 0xe519609bef362215L; 0x310f4d3e20358cd9L; 0xb8ba97976326de3L; 0x52a6b40ff5ea91b1L;
    0x3f6273cc62f37314L; 0xe8ece61a3cfa303dL; 0x8017bcb9513ca2c3L; 0x9ffdf147818a9c7fL; 0x4b5054ebab3d28a0L;
    0x190531807067884fL; 0xb80d9be2a1ed1123L; 0xc5f038d4acc94771L; 0x2cfa6e7f70a53cc3L; 0xf9db952e3d789c30L;
    0x32090efd5431e749L ]

let test_rng_pinned_streams () =
  let draws rng = List.init 16 (fun _ -> Rng.int64 rng) in
  Alcotest.(check (list int64)) "seed 0" pinned_seed0 (draws (Rng.create ~seed:0));
  Alcotest.(check (list int64)) "seed 42" pinned_seed42 (draws (Rng.create ~seed:42));
  Alcotest.(check (list int64)) "stream (7, 3)" pinned_stream7_3 (draws (Rng.stream ~seed:7 3))

(* Every wire message draws its link jitter through [Rng.int]: a draw
   must not box the generator state or the raw 64-bit value. *)
let test_rng_int_allocates_nothing () =
  let rng = Rng.create ~seed:3 in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum := !sum + Rng.int rng 1000
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "draws happened" true (!sum > 0);
  Alcotest.(check (float 0.)) "10,000 draws allocate 0 minor words" 0. words

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let child_first = Rng.int64 child in
  let parent_next = Rng.int64 parent in
  Alcotest.(check bool) "split stream differs from parent" true (child_first <> parent_next)

let test_rng_copy_replays () =
  let a = Rng.create ~seed:99 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 3.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never true" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli rng 1.0)
  done

let test_rng_uniformity () =
  let rng = Rng.create ~seed:11 in
  let buckets = Array.make 8 0 in
  let n = 16_000 in
  for _ = 1 to n do
    let b = Rng.int rng 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = n / 8 in
      let deviation = abs (count - expected) in
      Alcotest.(check bool) (Printf.sprintf "bucket %d roughly uniform" i) true (deviation < expected / 4))
    buckets

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:12 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean close to 5" true (abs_float (mean -. 5.0) < 0.3)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:13 in
  let xs = List.init 20 (fun i -> i) in
  let shuffled = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort Int.compare shuffled)

let test_rng_pick_member () =
  let rng = Rng.create ~seed:14 in
  let xs = [ 3; 1; 4; 1; 5 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick from list" true (List.mem (Rng.pick rng xs) xs)
  done;
  Alcotest.check_raises "pick []" (Invalid_argument "Rng.pick: empty list") (fun () -> ignore (Rng.pick rng []))

let test_heap_basic () =
  let heap = Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty heap);
  Heap.push heap 5;
  Heap.push heap 3;
  Heap.push heap 8;
  Alcotest.(check int) "size" 3 (Heap.size heap);
  Alcotest.(check (option int)) "peek min" (Some 3) (Heap.peek heap);
  Alcotest.(check (option int)) "pop min" (Some 3) (Heap.pop heap);
  Alcotest.(check (option int)) "pop next" (Some 5) (Heap.pop heap);
  Alcotest.(check (option int)) "pop last" (Some 8) (Heap.pop heap);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop heap)

let test_heap_clear () =
  let heap = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push heap) [ 1; 2; 3 ];
  Heap.clear heap;
  Alcotest.(check bool) "cleared" true (Heap.is_empty heap)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let heap = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push heap) xs;
      let rec drain acc = match Heap.pop heap with Some x -> drain (x :: acc) | None -> List.rev acc in
      drain [] = List.sort Int.compare xs)

let prop_heap_size =
  QCheck.Test.make ~name:"heap size tracks pushes/pops" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let heap = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push heap) xs;
      let before = Heap.size heap in
      (match Heap.pop heap with
      | Some _ -> Heap.size heap = before - 1
      | None -> before = 0)
      && Heap.size heap = List.length (Heap.to_list heap))

(* Regression: pop used to leave the popped element (and the old root,
   duplicated into the last slot by the swap) reachable from the backing
   array, pinning arbitrarily large closures until the next push over
   that slot.  Popped elements must be collectable immediately. *)
let test_heap_pop_releases_memory () =
  let heap = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  let weak = Weak.create 8 in
  for i = 0 to 7 do
    let boxed = ref i in
    Weak.set weak i (Some boxed);
    Heap.push heap (i, boxed)
  done;
  let rec drain () = match Heap.pop heap with Some _ -> drain () | None -> () in
  drain ();
  Gc.full_major ();
  for i = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "popped element %d unreachable" i) false (Weak.check weak i)
  done

let test_heap_to_list_excludes_popped () =
  let heap = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push heap) [ 5; 1; 3 ];
  ignore (Heap.pop heap);
  Alcotest.(check (list int)) "popped element gone" [ 3; 5 ] (List.sort Int.compare (Heap.to_list heap))

(* --- Deque vs a plain list (front first) ------------------------- *)

(* The tests store non-negative ints, so [-1] is a safe dummy. *)
let test_deque_basic () =
  let dq = Deque.create ~dummy:(-1) () in
  Alcotest.(check bool) "empty" true (Deque.is_empty dq);
  Alcotest.(check int) "front of empty is none" (-2) (Deque.front_or dq ~none:(-2));
  Deque.push_back dq 1;
  Deque.push_back dq 2;
  Deque.push_back dq 3;
  Alcotest.(check int) "length" 3 (Deque.length dq);
  Alcotest.(check int) "front" 1 (Deque.front_or dq ~none:(-1));
  Alcotest.(check int) "get 2" 3 (Deque.get dq 2);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Deque.to_list dq);
  Deque.drop_front dq;
  Alcotest.(check (list int)) "after drop" [ 2; 3 ] (Deque.to_list dq);
  Alcotest.(check int) "new front" 2 (Deque.front_or dq ~none:(-1));
  Deque.clear dq;
  Deque.drop_front dq;
  Alcotest.(check bool) "drop on empty is a no-op" true (Deque.is_empty dq);
  Alcotest.(check int) "front after clear" (-1) (Deque.front_or dq ~none:(-1))

let test_deque_wraparound () =
  (* force the head past the physical end of the backing array *)
  let dq = Deque.create ~dummy:(-1) () in
  for i = 0 to 15 do
    Deque.push_back dq i
  done;
  for _ = 0 to 11 do
    Deque.drop_front dq
  done;
  for i = 16 to 27 do
    Deque.push_back dq i
  done;
  Alcotest.(check (list int)) "order across wrap" (List.init 16 (fun i -> i + 12)) (Deque.to_list dq)

let test_deque_filter_in_place () =
  let dq = Deque.create ~dummy:(-1) () in
  for i = 0 to 9 do
    Deque.push_back dq i
  done;
  Deque.filter_in_place (fun x -> x mod 2 = 0) dq;
  Alcotest.(check (list int)) "evens, order kept" [ 0; 2; 4; 6; 8 ] (Deque.to_list dq);
  Deque.push_back dq 10;
  Alcotest.(check (list int)) "usable after filter" [ 0; 2; 4; 6; 8; 10 ] (Deque.to_list dq)

(* Random push/pop/ack-prune sequences against the list model, driven by
   a seeded Rng so failures replay exactly. *)
let prop_deque_matches_list_model =
  QCheck.Test.make ~name:"deque: random op sequence matches list model" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 400))
    (fun (seed, n_ops) ->
      let rng = Rng.create ~seed in
      let dq = Deque.create ~dummy:(-1) () in
      let model = ref [] in
      let ok = ref true in
      let agree () =
        ok :=
          !ok
          && Deque.to_list dq = !model
          && Deque.length dq = List.length !model
          && Deque.front_or dq ~none:(-1) = (match !model with [] -> -1 | x :: _ -> x)
      in
      for _ = 1 to n_ops do
        (match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 ->
            let x = Rng.int rng 1000 in
            Deque.push_back dq x;
            model := !model @ [ x ]
        | 5 | 6 -> (
            let front = Deque.front_or dq ~none:(-1) in
            Deque.drop_front dq;
            match !model with
            | [] -> ok := !ok && front = -1
            | x :: rest ->
                model := rest;
                ok := !ok && front = x)
        | 7 ->
            (* cumulative-ack-style prune: drop the front while < k *)
            let k = Rng.int rng 1000 in
            let rec prune () =
              let x = Deque.front_or dq ~none:(-1) in
              if x >= 0 && x < k then begin
                Deque.drop_front dq;
                prune ()
              end
            in
            prune ();
            let rec model_prune = function x :: rest when x < k -> model_prune rest | m -> m in
            model := model_prune !model
        | 8 ->
            let keep = Rng.int rng 2 = 0 in
            Deque.filter_in_place (fun x -> (x mod 2 = 0) = keep) dq;
            model := List.filter (fun x -> (x mod 2 = 0) = keep) !model
        | _ ->
            if !model <> [] then begin
              let i = Rng.int rng (List.length !model) in
              ok := !ok && Deque.get dq i = List.nth !model i
            end);
        agree ()
      done;
      !ok)

(* --- Seqbuf vs a sorted association list ------------------------- *)

let test_seqbuf_basic () =
  let buf = Seqbuf.create () in
  Alcotest.(check bool) "empty" true (Seqbuf.is_empty buf);
  Seqbuf.add buf 5 "e";
  Seqbuf.add buf 2 "b";
  Seqbuf.add buf 2 "DUP";
  Alcotest.(check int) "duplicate seq ignored" 2 (Seqbuf.length buf);
  Alcotest.(check (option (pair int string))) "min" (Some (2, "b")) (Seqbuf.min_opt buf);
  Seqbuf.remove_min buf;
  Alcotest.(check (option (pair int string))) "next min" (Some (5, "e")) (Seqbuf.min_opt buf);
  Seqbuf.clear buf;
  Alcotest.(check bool) "cleared" true (Seqbuf.is_empty buf)

let prop_seqbuf_matches_list_model =
  QCheck.Test.make ~name:"seqbuf: random op sequence matches sorted-assoc model" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 300))
    (fun (seed, n_ops) ->
      let rng = Rng.create ~seed in
      let buf = Seqbuf.create () in
      let model = ref [] (* sorted by seq, first arrival wins *) in
      let ok = ref true in
      let model_add seq x =
        if not (List.mem_assoc seq !model) then
          model := List.sort (fun (a, _) (b, _) -> Int.compare a b) ((seq, x) :: !model)
      in
      for _ = 1 to n_ops do
        (match Rng.int rng 8 with
        | 0 | 1 | 2 | 3 ->
            (* small key range so duplicate arrivals actually happen *)
            let seq = Rng.int rng 40 in
            let x = Rng.int rng 1000 in
            Seqbuf.add buf seq x;
            model_add seq x
        | 4 | 5 -> (
            Seqbuf.remove_min buf;
            match !model with [] -> () | _ :: rest -> model := rest)
        | 6 ->
            let seq = Rng.int rng 40 in
            ok := !ok && Seqbuf.mem buf seq = List.mem_assoc seq !model
        | _ ->
            if Rng.int rng 20 = 0 then begin
              Seqbuf.clear buf;
              model := []
            end);
        ok :=
          !ok
          && Seqbuf.to_list buf = !model
          && Seqbuf.length buf = List.length !model
          && Seqbuf.min_opt buf = (match !model with [] -> None | entry :: _ -> Some entry)
      done;
      !ok)

(* --- Wheel vs the heap it replaced ------------------------------- *)

let none = min_int

let drain_wheel wheel ~limit =
  let rec go acc =
    let v = Wheel.pop_or wheel ~limit ~none in
    if v = none then List.rev acc else go (v :: acc)
  in
  go []

let test_wheel_basic () =
  let wheel = Wheel.create ~dummy:none () in
  Alcotest.(check bool) "empty" true (Wheel.is_empty wheel);
  Wheel.schedule wheel ~tick:50 1;
  Wheel.schedule wheel ~tick:10 2;
  Wheel.schedule wheel ~tick:50 3;
  Wheel.schedule wheel ~tick:70_000 4;
  Alcotest.(check int) "length" 4 (Wheel.length wheel);
  Alcotest.(check (list int)) "nothing before tick 10" [] (drain_wheel wheel ~limit:9);
  Alcotest.(check (list int)) "tick order, FIFO within tick" [ 2; 1; 3 ] (drain_wheel wheel ~limit:60);
  Alcotest.(check int) "cursor parked at limit" 60 (Wheel.cur wheel);
  Alcotest.(check (list int)) "far event after cascade" [ 4 ] (drain_wheel wheel ~limit:100_000);
  Alcotest.(check bool) "drained" true (Wheel.is_empty wheel)

let test_wheel_cancel_never_fires () =
  let wheel = Wheel.create ~dummy:none () in
  Wheel.schedule wheel ~tick:5 1;
  let h = Wheel.schedule_handle wheel ~tick:5 2 in
  Wheel.schedule wheel ~tick:5 3;
  let far = Wheel.schedule_handle wheel ~tick:1_000_000 4 in
  Alcotest.(check (option int)) "cancel returns value" (Some 2) (Wheel.cancel wheel h);
  Alcotest.(check (option int)) "cancel idempotent" None (Wheel.cancel wheel h);
  Alcotest.(check (option int)) "cancel far (still in upper level)" (Some 4) (Wheel.cancel wheel far);
  Alcotest.(check (list int)) "cancelled events never pop" [ 1; 3 ] (drain_wheel wheel ~limit:2_000_000)

(* Regression for the heap->wheel swap: a cancel handle that outlives
   its event must not kill the node's next occupant after pool reuse.
   The old heap tolerated stale cancels because cancellation was a
   [cancelled] ref read at dispatch; the wheel pins the same behavior
   with generation stamps. *)
let test_wheel_stale_cancel_after_reuse () =
  let wheel = Wheel.create ~dummy:none () in
  let h = Wheel.schedule_handle wheel ~tick:10 1 in
  Alcotest.(check (list int)) "fires" [ 1 ] (drain_wheel wheel ~limit:20);
  Wheel.schedule wheel ~tick:30 2 (* reuses the pooled node *);
  Alcotest.(check int) "node reused, none allocated" 1 (Wheel.allocated wheel);
  Alcotest.(check (option int)) "stale cancel is a no-op" None (Wheel.cancel wheel h);
  Alcotest.(check (list int)) "new occupant survives stale cancel" [ 2 ] (drain_wheel wheel ~limit:40)

let test_wheel_pool_reuse () =
  let wheel = Wheel.create ~dummy:none () in
  for round = 0 to 99 do
    let base = round * 1000 in
    for i = 0 to 9 do
      Wheel.schedule wheel ~tick:(base + i) i
    done;
    Alcotest.(check int) "all pop" 10 (List.length (drain_wheel wheel ~limit:(base + 100)))
  done;
  Alcotest.(check int) "pool capped at burst size" 10 (Wheel.allocated wheel);
  Alcotest.(check int) "all nodes back in pool" 10 (Wheel.pooled wheel)

(* Same schedule/cancel/pop sequence against the old heap ordered by
   (tick, seq): pop order must be identical, including events landing in
   upper wheel levels, same-tick FIFO ties, cancellations, and the
   occasional past-tick (overdue) schedule. *)
let prop_wheel_matches_heap_model =
  QCheck.Test.make ~name:"wheel: random schedule/cancel sequence matches heap model" ~count:150
    QCheck.(pair (int_bound 100_000) (int_range 1 120))
    (fun (seed, n_rounds) ->
      let rng = Rng.create ~seed in
      let wheel = Wheel.create ~dummy:none () in
      let heap = Heap.create ~cmp:(fun (t1, s1, _) (t2, s2, _) -> if t1 <> t2 then Int.compare t1 t2 else Int.compare s1 s2) in
      let cancelled = Hashtbl.create 16 in
      let handles = ref [] in
      let seq = ref 0 in
      let next_id = ref 0 in
      let limit = ref 0 in
      let ok = ref true in
      for _ = 1 to n_rounds do
        (* a burst of schedules at mixed horizons *)
        for _ = 1 to Rng.int rng 8 do
          let delta =
            match Rng.int rng 6 with
            | 0 -> Rng.int rng 16 (* level 0 *)
            | 1 -> Rng.int rng 4_096 (* levels 0-1 *)
            | 2 -> Rng.int rng 1_000_000 (* levels 1-2 *)
            | 3 -> Rng.int rng 200_000_000 (* levels 3-4 *)
            | 4 -> -Rng.int rng 50 (* overdue *)
            | _ -> Rng.int rng 40 (* tick collisions for FIFO ties *)
          in
          let tick = max 0 (Wheel.cur wheel + delta) in
          let id = !next_id in
          incr next_id;
          incr seq;
          Heap.push heap (tick, !seq, id);
          if Rng.int rng 3 = 0 then handles := (id, Wheel.schedule_handle wheel ~tick id) :: !handles
          else Wheel.schedule wheel ~tick id
        done;
        (* cancel a remembered handle now and then, possibly twice *)
        (match !handles with
        | (id, h) :: rest when Rng.int rng 3 = 0 ->
            (match Wheel.cancel wheel h with
            | Some v ->
                ok := !ok && v = id;
                Hashtbl.replace cancelled id ()
            | None -> () (* already popped or already cancelled: heap model keeps it *));
            if Rng.int rng 2 = 0 then ok := !ok && Wheel.cancel wheel h = None;
            handles := rest
        | _ -> ());
        (* advance the horizon and compare full pop sequences *)
        limit := !limit + Rng.int rng 3_000_000;
        let got = drain_wheel wheel ~limit:!limit in
        let rec model acc =
          match Heap.peek heap with
          | Some (t, _, id) when t <= !limit ->
              ignore (Heap.pop heap);
              if Hashtbl.mem cancelled id then model acc else model (id :: acc)
          | _ -> List.rev acc
        in
        let want = model [] in
        ok := !ok && got = want
      done;
      let pending_cancelled =
        List.length (List.filter (fun (_, _, id) -> Hashtbl.mem cancelled id) (Heap.to_list heap))
      in
      !ok && Wheel.length wheel = Heap.size heap - pending_cancelled)

(* --- Intern table ------------------------------------------------ *)

let test_itbl_basic () =
  let t = Itbl.create () in
  Alcotest.(check int) "empty" 0 (Itbl.length t);
  Itbl.replace t 7 "a";
  Itbl.replace t 7 "b";
  Itbl.replace t 0 "z";
  Alcotest.(check int) "replace rebinds" 2 (Itbl.length t);
  Alcotest.(check (option string)) "find_opt hit" (Some "b") (Itbl.find_opt t 7);
  Alcotest.(check string) "find hit" "z" (Itbl.find t 0);
  Alcotest.(check (option string)) "find_opt miss" None (Itbl.find_opt t 3);
  Alcotest.(check (option string)) "negative key is never bound" None (Itbl.find_opt t (-1));
  Alcotest.check_raises "find miss" Not_found (fun () -> ignore (Itbl.find t 3));
  Itbl.remove t 7;
  Alcotest.(check bool) "removed" false (Itbl.mem t 7);
  Alcotest.(check (list (pair int string))) "sorted bindings" [ (0, "z") ] (Itbl.bindings_sorted t)

let prop_itbl_matches_hashtbl_model =
  QCheck.Test.make ~name:"itbl: random op sequence matches Hashtbl model" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 400))
    (fun (seed, n_ops) ->
      let rng = Rng.create ~seed in
      let t = Itbl.create () in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to n_ops do
        (* small key range so rebinding, removal and tombstone reuse all
           happen; large enough to force several resizes *)
        let key = Rng.int rng 120 in
        match Rng.int rng 8 with
        | 0 | 1 | 2 | 3 -> (
            let v = Rng.int rng 1000 in
            Itbl.replace t key v;
            match Hashtbl.find_opt model key with
            | Some _ -> Hashtbl.replace model key v
            | None -> Hashtbl.add model key v)
        | 4 | 5 ->
            Itbl.remove t key;
            Hashtbl.remove model key
        | 6 -> ok := !ok && Itbl.mem t key = Hashtbl.mem model key
        | _ -> ok := !ok && Itbl.find_opt t key = Hashtbl.find_opt model key
      done;
      let model_sorted =
        List.sort (fun (a, _) (b, _) -> Int.compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      !ok
      && Itbl.length t = Hashtbl.length model
      && Itbl.bindings_sorted t = model_sorted
      && Itbl.fold_sorted (fun k v acc -> (k, v) :: acc) t [] = List.rev model_sorted)

(* The walk order is the sorted list model's, with walks interleaved
   with the mutations so every walk after a [replace] or [remove] has to
   rebuild the cached snapshot, and walks in between reuse it. *)
let prop_itbl_walk_matches_list_model =
  QCheck.Test.make ~name:"itbl: cached walk order matches a sorted list model" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 300))
    (fun (seed, n_ops) ->
      let rng = Rng.create ~seed in
      let t = Itbl.create () in
      let model = ref [] in
      let walked () = List.rev (Itbl.fold_sorted (fun k v acc -> (k, v) :: acc) t []) in
      let iterated () =
        let acc = ref [] in
        Itbl.iter_sorted (fun k v -> acc := (k, v) :: !acc) t;
        List.rev !acc
      in
      let ok = ref true in
      for _ = 1 to n_ops do
        let key = Rng.int rng 60 in
        (match Rng.int rng 4 with
        | 0 | 1 ->
            let v = Rng.int rng 1000 in
            Itbl.replace t key v;
            model := (key, v) :: List.remove_assoc key !model
        | 2 ->
            Itbl.remove t key;
            model := List.remove_assoc key !model
        | _ -> ());
        let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) !model in
        ok := !ok && walked () = sorted && iterated () = sorted && Itbl.bindings_sorted t = sorted
      done;
      !ok)

(* A walk visits the bindings present when it started, in key order,
   whatever its callback does to the table. *)
let test_itbl_walk_snapshot () =
  let t = Itbl.create () in
  List.iter (fun k -> Itbl.replace t k (k * 10)) [ 5; 1; 9; 3; 7 ];
  let before = Itbl.bindings_sorted t in
  let seen = ref [] in
  Itbl.iter_sorted
    (fun k v ->
      seen := (k, v) :: !seen;
      (* drop a later key, add keys on both sides, rebind the next one *)
      if k = 3 then begin
        Itbl.remove t 7;
        Itbl.replace t 4 40;
        Itbl.replace t 100 1000;
        Itbl.replace t 5 555
      end)
    t;
  Alcotest.(check (list (pair int int))) "visited the pre-walk bindings" before (List.rev !seen);
  Alcotest.(check (list (pair int int)))
    "the mutations are visible to the next walk"
    [ (1, 10); (3, 30); (4, 40); (5, 555); (9, 90); (100, 1000) ]
    (Itbl.bindings_sorted t);
  let folded = Itbl.fold_sorted (fun k _ acc -> Itbl.remove t k; k :: acc) t [] in
  Alcotest.(check (list int)) "a fold that empties the table still visits every key" [ 100; 9; 5; 4; 3; 1 ] folded;
  Alcotest.(check int) "emptied" 0 (Itbl.length t)

let walk_total = ref 0
let add_value _ v = walk_total := !walk_total + v
let sum_value _ v acc = acc + v

let test_itbl_repeated_walk_allocates_nothing () =
  let t = Itbl.create () in
  for k = 0 to 63 do
    Itbl.replace t (k * 7) k
  done;
  Itbl.iter_sorted add_value t;
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Itbl.iter_sorted add_value t;
    sum := !sum + Itbl.fold_sorted sum_value t 0
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every walk saw every binding" (1_000 * 2016) !sum;
  Alcotest.(check (float 0.)) "1,000 unchanged iter + fold walks allocate 0 minor words" 0. words

let test_intern_round_trip () =
  let t = Intern.create () in
  let renders = ref 0 in
  let render c =
    incr renders;
    Printf.sprintf "id-%d" c
  in
  let a = Intern.intern t 42 render in
  let b = Intern.intern t 42 render in
  Alcotest.(check string) "round trip" "id-42" a;
  Alcotest.(check bool) "hit returns the same physical string" true (a == b);
  Alcotest.(check int) "rendered once" 1 !renders;
  Alcotest.(check (option string)) "find" (Some "id-42") (Intern.find t 42);
  Alcotest.(check (option string)) "find miss" None (Intern.find t 7);
  Alcotest.(check bool) "mem" true (Intern.mem t 42)

let test_intern_stable_order () =
  let t = Intern.create () in
  let render c = string_of_int c in
  List.iter (fun c -> ignore (Intern.intern t c render)) [ 9; 3; 7; 3; 9; 1 ];
  Alcotest.(check (list int)) "first-interned order, duplicates ignored" [ 9; 3; 7; 1 ] (Intern.codes t);
  Alcotest.(check (list int)) "codes stable across calls" (Intern.codes t) (Intern.codes t);
  Alcotest.(check int) "count" 4 (Intern.count t)

let suite =
  [
    Alcotest.test_case "rng pinned streams" `Quick test_rng_pinned_streams;
    Alcotest.test_case "rng int allocates nothing" `Quick test_rng_int_allocates_nothing;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy replays" `Quick test_rng_copy_replays;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng bernoulli extremes" `Quick test_rng_bernoulli_extremes;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng shuffle is a permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng pick" `Quick test_rng_pick_member;
    Alcotest.test_case "heap basic" `Quick test_heap_basic;
    Alcotest.test_case "heap clear" `Quick test_heap_clear;
    Alcotest.test_case "heap pop releases memory" `Quick test_heap_pop_releases_memory;
    Alcotest.test_case "heap to_list excludes popped" `Quick test_heap_to_list_excludes_popped;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_size;
    Alcotest.test_case "deque basic" `Quick test_deque_basic;
    Alcotest.test_case "deque wraparound" `Quick test_deque_wraparound;
    Alcotest.test_case "deque filter_in_place" `Quick test_deque_filter_in_place;
    Alcotest.test_case "seqbuf basic" `Quick test_seqbuf_basic;
    QCheck_alcotest.to_alcotest prop_deque_matches_list_model;
    QCheck_alcotest.to_alcotest prop_seqbuf_matches_list_model;
    Alcotest.test_case "wheel basic" `Quick test_wheel_basic;
    Alcotest.test_case "wheel cancel never fires" `Quick test_wheel_cancel_never_fires;
    Alcotest.test_case "wheel stale cancel after reuse" `Quick test_wheel_stale_cancel_after_reuse;
    Alcotest.test_case "wheel pool reuse" `Quick test_wheel_pool_reuse;
    QCheck_alcotest.to_alcotest prop_wheel_matches_heap_model;
    Alcotest.test_case "itbl basic" `Quick test_itbl_basic;
    QCheck_alcotest.to_alcotest prop_itbl_matches_hashtbl_model;
    Alcotest.test_case "intern round trip" `Quick test_intern_round_trip;
    Alcotest.test_case "intern stable order" `Quick test_intern_stable_order;
    QCheck_alcotest.to_alcotest prop_itbl_walk_matches_list_model;
    Alcotest.test_case "itbl walk keeps its snapshot" `Quick test_itbl_walk_snapshot;
    Alcotest.test_case "itbl repeated walk allocates nothing" `Quick test_itbl_repeated_walk_allocates_nothing;
  ]
