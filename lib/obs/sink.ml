(* Ring-buffered trace sink.  Bounded memory: once the ring is full the
   oldest entries are overwritten and counted as dropped.  Emission is a
   couple of array writes, cheap enough to leave on during benchmarks.
   The array doubles up to [capacity]: a short run costs short-run memory. *)

type t = {
  capacity : int;
  mutable buf : Event.entry option array; (* length reaches [capacity] before the ring wraps *)
  mutable emitted : int; (* total entries ever emitted *)
}

let default_capacity = 1 lsl 19

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  { capacity; buf = Array.make (min capacity 1024) None; emitted = 0 }

let emit t ~at_us event =
  let len = Array.length t.buf in
  if t.emitted = len && len < t.capacity then begin
    let grown = Array.make (min t.capacity (2 * len)) None in
    Array.blit t.buf 0 grown 0 len;
    t.buf <- grown
  end;
  t.buf.(t.emitted mod t.capacity) <- Some { Event.at_us; event };
  t.emitted <- t.emitted + 1

let length t = min t.emitted t.capacity
let dropped t = max 0 (t.emitted - t.capacity)

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.emitted <- 0

(* Oldest-first iteration over the retained window. *)
let iter t f =
  let len = length t in
  let start = if t.emitted > t.capacity then t.emitted mod t.capacity else 0 in
  for i = 0 to len - 1 do
    match t.buf.((start + i) mod t.capacity) with Some entry -> f entry | None -> ()
  done

let to_list t =
  let acc = ref [] in
  iter t (fun entry -> acc := entry :: !acc);
  List.rev !acc

let dump_jsonl t oc =
  iter t (fun entry ->
      output_string oc (Json.to_string (Event.to_json entry));
      output_char oc '\n')

let write_file t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> dump_jsonl t oc)

let entries_of_jsonl_string text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None else Some (Event.of_json (Json.of_string line)))

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      entries_of_jsonl_string (really_input_string ic len))
