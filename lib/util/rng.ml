(* The splitmix64 state lives unboxed in 8 bytes, read and written with
   the unaligned 64-bit primitives: a [mutable state : int64] field
   would box a fresh [int64] on every draw, and every wire message draws
   its link jitter.  [next_raw] is inlined into each draw so its result
   stays unboxed too; only [int64], whose result escapes, boxes. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] next_raw t =
  let z = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next_raw t

let split t = of_state (next_raw t)

let stream ~seed index =
  (* One scramble round so stream [index] is decorrelated both from
     [create ~seed] (whose state starts at [seed] exactly) and from
     neighbouring indices. *)
  let t = of_state (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (index + 1)) golden_gamma)) in
  set64 t 0 (next_raw t);
  t

let copy t = Bytes.copy t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_raw t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let[@inline] float t bound =
  (* 53 uniform bits scaled into [0, bound) *)
  let bits = Int64.shift_right_logical (next_raw t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_raw t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* avoid log 0 *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
