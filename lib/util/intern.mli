(** Interning table keyed by integer codes.

    The data plane carries group and view identities as packed integer
    codes (see [Gid.code] / [View_id.code] in [lib/vsync/types.ml]);
    string forms exist only at trace/JSON boundaries.  This table
    memoizes the rendered form per code so a boundary render allocates
    once per identity, not once per event.

    Determinism note: lookups are by code and the rendered value is a
    pure function of the code, so the table's contents never depend on
    arrival order — only {!codes} exposes insertion order, and nothing
    on the data plane may consume it. *)

type 'a t

val create : ?size:int -> unit -> 'a t

val intern : 'a t -> int -> (int -> 'a) -> 'a
(** [intern t code render] returns the value interned for [code],
    computing it with [render code] on first sight.  Pass a top-level
    [render] function so the hit path allocates nothing. *)

val find : 'a t -> int -> 'a option [@@test_support "tests observe the table"]

val mem : 'a t -> int -> bool [@@test_support "tests observe the table"]

val count : 'a t -> int [@@test_support "tests observe the table"]

val codes : 'a t -> int list [@@test_support "tests observe the table"]
(** Codes in first-interned order (stable across calls). *)
