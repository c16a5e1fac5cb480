(* Growable ring buffer: amortized-O(1) push at the back and pop at the
   front, the access pattern of every FIFO hot path in the stack (the
   transport's unacked window, the HWG total-order pending queue, the
   per-sender retransmission stores).  Vacated slots are cleared to
   [None] so popped elements do not linger behind closures captured by
   the simulator. *)

type 'a t = {
  mutable data : 'a option array;
  mutable head : int; (* physical index of the front element *)
  mutable len : int;
}

let create () = { data = [||]; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let phys t i = (t.head + i) mod Array.length t.data

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Deque.get: index out of bounds";
  match t.data.(phys t i) with Some x -> x | None -> assert false

let grow t =
  let capacity = Array.length t.data in
  if t.len = capacity then begin
    let next = if capacity = 0 then 16 else capacity * 2 in
    let data = Array.make next None in
    for i = 0 to t.len - 1 do
      data.(i) <- t.data.(phys t i)
    done;
    t.data <- data;
    t.head <- 0
  end

let push_back t x =
  grow t;
  t.data.(phys t t.len) <- Some x;
  t.len <- t.len + 1

let peek_front t = if t.len = 0 then None else Some (get t 0)

let pop_front t =
  if t.len = 0 then None
  else begin
    let front = t.data.(t.head) in
    t.data.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.data;
    t.len <- t.len - 1;
    if t.len = 0 then t.head <- 0;
    front
  end

let clear t =
  t.data <- [||];
  t.head <- 0;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let to_list t = List.rev (fold_left (fun acc x -> x :: acc) [] t)

(* Keep only elements satisfying [pred], preserving order.  O(n); the
   callers' fast paths pop from the front and only fall back to this
   when an element leaves the queue out of order. *)
let filter_in_place pred t =
  let kept = ref [] in
  iter (fun x -> if pred x then kept := x :: !kept) t;
  let kept = List.rev !kept in
  let n = List.length kept in
  if n <> t.len then begin
    let capacity = Array.length t.data in
    Array.fill t.data 0 capacity None;
    t.head <- 0;
    t.len <- 0;
    List.iter (fun x -> push_back t x) kept
  end
