(* Order statistics for the benchmark: quantiles of simulated-time
   samples within one repetition, and the median / IQR summary of a
   metric across repetitions. *)

(* Quantile [q] of [a], sorted ascending.  Simulated times are whole
   microseconds, so samples tie often; each value v is read as covering
   [v - 0.5, v + 0.5) and the quantile is interpolated inside its run of
   ties (the grouped-data estimator), so it moves continuously with the
   sample instead of snapping to the microsecond grid.  [max_int] marks a
   failed operation and reads as infinity.  0 on an empty sample. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let target = q *. float_of_int n in
    let i = min (n - 1) (int_of_float target) in
    let v = a.(i) in
    if v = max_int then infinity
    else begin
      let lo = ref i in
      while !lo > 0 && a.(!lo - 1) = v do
        decr lo
      done;
      let hi = ref (i + 1) in
      while !hi < n && a.(!hi) = v do
        incr hi
      done;
      float_of_int v -. 0.5 +. ((target -. float_of_int !lo) /. float_of_int (!hi - !lo))
    end

(* The first [n] entries of [a], sorted. *)
let sort_prefix a n =
  let s = Array.sub a 0 n in
  Array.sort Int.compare s;
  s

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile with Python's [statistics.quantiles (n=4)]
   default ("exclusive") method, so the spreads printed here are the
   ones a reader recomputes from the history file. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let cut i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 3)

let iqr xs =
  let q1, q3 = quartiles xs in
  q3 -. q1

let minimum xs = List.fold_left Float.min infinity xs
