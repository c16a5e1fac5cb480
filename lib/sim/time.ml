type t = int
type span = int

let zero = 0

let us x = x
let ms x = x * 1_000
let sec x = x * 1_000_000
let add t span = t + span
let diff a b = a - b

let to_float_ms span = float_of_int span /. 1e3
let to_float_sec span = float_of_int span /. 1e6

let compare = Int.compare

let pp ppf t = Format.fprintf ppf "%.3fs" (to_float_sec t)
