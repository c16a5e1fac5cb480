type t = int

let compare = Int.compare
let equal = Int.equal
let pp ppf t = Format.fprintf ppf "n%d" t
let to_string t = "n" ^ string_of_int t

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let set_of_list xs = Set.of_list xs

let pp_list ppf xs =
  Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";") pp) xs
