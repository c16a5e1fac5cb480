(** Small statistics helpers for the experiment harness. *)

val mean : float list -> float
(** 0 on the empty list. *)

val stddev : float list -> float [@@test_support "statistics helper for experiment scripts"]

type series = { label : string; points : (int * float) list }

val print_table : header:string -> x_label:string -> series list -> unit
(** Render aligned comma-separated rows, one per x value, one column per
    series — the textual equivalent of one panel of a paper figure. *)
