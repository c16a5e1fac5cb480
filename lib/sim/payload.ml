type t = ..

let printers : (t -> string option) list ref =
  ref []
[@@shared_cell "printer registry: extended at module-initialisation time only, read-only afterwards"]

let register_printer p = printers := p :: !printers

let to_string payload =
  let rec try_all = function
    | [] -> "<payload>"
    | p :: rest -> ( match p payload with Some s -> s | None -> try_all rest)
  in
  try_all !printers
