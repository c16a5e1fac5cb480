(* Open-addressing hash table for non-negative int keys (Gid.code,
   View_id.code, node ids).  [Stdlib.Hashtbl] pays a C call into the
   seeded hash and a bucket-list walk per probe; on the simulator's per
   message lookups (every group message resolves its gstate, hit or
   miss) that is the single largest table cost.  Here a probe is a
   multiply, a mask and an array load, and a lookup — hit or miss —
   allocates nothing (the [Some] in [vals] is built once per binding).

   Deliberately NOT a [Hashtbl] clone: there is no unordered [iter] or
   [fold] at all, only key-ascending walks, so iteration order can
   never depend on hashing or insertion history — the property
   plwg-lint's hashtbl-iter-order rule enforces for stdlib tables.

   Keys are single-bound ([replace] semantics); negative keys are
   rejected ([-1]/[-2] are the empty/tombstone slot markers).

   Walks read a cached key-ascending snapshot array.  [replace] and
   [remove] drop it and the next walk rebuilds it, so a walk over a
   table whose keys did not change since the previous walk allocates
   nothing.  A rebuild makes a fresh array and never writes into the
   old one: a walk keeps iterating the snapshot it started with, so a
   mutation during a walk is invisible to it. *)

type 'a t = {
  mutable keys : int array; (* -1 empty, -2 tombstone *)
  mutable vals : 'a option array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int; (* bound keys *)
  mutable used : int; (* live + tombstones: drives resizing *)
  mutable sorted : (int * 'a) array option; (* key-ascending bindings; [None] from a mutation to the next walk *)
}

let min_capacity = 16

let create () =
  {
    keys = Array.make min_capacity (-1);
    vals = Array.make min_capacity None;
    mask = min_capacity - 1;
    live = 0;
    used = 0;
    sorted = None;
  }

let length t = t.live

(* Fibonacci hashing: the odd (SplitMix64) multiplier spreads consecutive codes
   (packed (seq, origin) pairs differ in low bits only) across the
   table. *)
let slot_of t key = ((key * 0x2545F4914F6CDD1D) lsr 16) land t.mask

let rec probe_find t key i =
  let k = t.keys.(i) in
  if k = key then i else if k = -1 then -1 else probe_find t key ((i + 1) land t.mask)

let find t key =
  if key < 0 then raise Not_found
  else
    let i = probe_find t key (slot_of t key) in
    if i < 0 then raise Not_found
    else match t.vals.(i) with Some v -> v | None -> raise Not_found (* unreachable: live slots are [Some] *)

let find_opt t key =
  if key < 0 then None
  else
    let i = probe_find t key (slot_of t key) in
    if i < 0 then None else t.vals.(i)

let mem t key = key >= 0 && probe_find t key (slot_of t key) >= 0

let insert_fresh keys vals mask key v =
  (* only called on tables with no tombstones and spare room *)
  let rec go i =
    if keys.(i) = -1 then begin
      keys.(i) <- key;
      vals.(i) <- v
    end
    else go ((i + 1) land mask)
  in
  go (((key * 0x2545F4914F6CDD1D) lsr 16) land mask)

let grow t =
  let cap = (t.mask + 1) * 2 in
  (* a table that is mostly tombstones shrinks back instead *)
  let cap = if t.live * 4 < cap then cap / 2 else cap in
  let cap = max cap min_capacity in
  let keys = Array.make cap (-1) in
  let vals = Array.make cap None in
  let old_keys = t.keys and old_vals = t.vals in
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- cap - 1;
  t.used <- t.live;
  Array.iteri (fun i k -> if k >= 0 then insert_fresh keys vals t.mask k old_vals.(i)) old_keys

let replace t key v =
  if key < 0 then invalid_arg "Itbl.replace: negative key";
  t.sorted <- None;
  let boxed = Some v in
  let rec go i tomb =
    let k = t.keys.(i) in
    if k = key then t.vals.(i) <- boxed
    else if k = -1 then begin
      let at = if tomb >= 0 then tomb else i in
      t.keys.(at) <- key;
      t.vals.(at) <- boxed;
      t.live <- t.live + 1;
      if tomb < 0 then begin
        t.used <- t.used + 1;
        if t.used * 4 > (t.mask + 1) * 3 then grow t
      end
    end
    else if k = -2 && tomb < 0 then go ((i + 1) land t.mask) i
    else go ((i + 1) land t.mask) tomb
  in
  go (slot_of t key) (-1)

let remove t key =
  if key >= 0 then begin
    let i = probe_find t key (slot_of t key) in
    if i >= 0 then begin
      t.sorted <- None;
      t.keys.(i) <- -2;
      t.vals.(i) <- None;
      t.live <- t.live - 1
    end
  end

(* Key-ascending snapshot: the only way to walk the table. *)
let snapshot t =
  match t.sorted with
  | Some snap -> snap
  | None ->
      let acc = ref [] in
      Array.iteri (fun i k -> if k >= 0 then match t.vals.(i) with Some v -> acc := (k, v) :: !acc | None -> ()) t.keys;
      let snap = Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc) in
      t.sorted <- Some snap;
      snap

let bindings_sorted t = Array.to_list (snapshot t)

let iter_sorted f t =
  let snap = snapshot t in
  for i = 0 to Array.length snap - 1 do
    let key, value = snap.(i) in
    f key value
  done

let rec fold_from f snap i acc =
  if i = Array.length snap then acc
  else
    let key, value = snap.(i) in
    fold_from f snap (i + 1) (f key value acc)

let fold_sorted f t init = fold_from f (snapshot t) 0 init
