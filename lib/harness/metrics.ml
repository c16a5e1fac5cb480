let mean = function
  | [] -> 0.0
  | samples -> List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)

let stddev samples =
  match samples with
  | [] | [ _ ] -> 0.0
  | _ ->
      let mu = mean samples in
      sqrt (mean (List.map (fun x -> (x -. mu) ** 2.0) samples))

type series = { label : string; points : (int * float) list }

let print_table ~header ~x_label series =
  Printf.printf "\n# %s\n" header;
  Printf.printf "%-8s" x_label;
  List.iter (fun { label; _ } -> Printf.printf "%12s" label) series;
  print_newline ();
  let xs =
    List.sort_uniq Int.compare (List.concat_map (fun { points; _ } -> List.map fst points) series)
  in
  List.iter
    (fun x ->
      Printf.printf "%-8d" x;
      List.iter
        (fun { points; _ } ->
          match List.assoc_opt x points with
          | Some y -> Printf.printf "%12.3f" y
          | None -> Printf.printf "%12s" "-")
        series;
      print_newline ())
    xs
