(* The plwg-lint rule catalog.  Two families:

   determinism — anything that can make two runs of the same seed
   diverge at the byte level (unordered hash-table walks, ambient
   randomness, wall-clock reads, polymorphic structural comparison on
   protocol values whose representation is not canonical);

   protocol — local invariants of the paper's machinery that the type
   checker cannot see (dispatches that silently swallow a newly added
   message constructor, LWG state mutated outside a designated
   transition function, public modules without an interface, protocol
   code reaching past the runtime layer).

   One engine checks every rule: the Tlint_* modules walk the .cmt
   typedtrees dune writes, so identifiers are matched by resolved path
   (through opens and local module aliases), not by spelling.  Two
   rules need the types outright: [Shared_cell] (the domain-safety
   precondition map for the parallel backend, lib/ only) and
   [Hot_path_alloc] (the compile-time gate on the zero-allocation data
   plane). *)

type id =
  | Hashtbl_iter_order
  | Random_outside_rng
  | Wall_clock
  | Poly_compare_protocol
  | Dispatch_wildcard
  | Lstate_mutation
  | Missing_mli
  | Gid_string_boundary
  | Runtime_boundary
  | Shared_cell
  | Hot_path_alloc

type severity = Warning | Error

type finding = {
  rule : id;
  file : string;  (** path as given on the command line, '/'-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  source_line : string;  (** trimmed text of the offending line; the baseline key *)
  message : string;
}

let all =
  [
    Hashtbl_iter_order;
    Random_outside_rng;
    Wall_clock;
    Poly_compare_protocol;
    Dispatch_wildcard;
    Lstate_mutation;
    Missing_mli;
    Gid_string_boundary;
    Runtime_boundary;
    Shared_cell;
    Hot_path_alloc;
  ]

let name = function
  | Hashtbl_iter_order -> "hashtbl-iter-order"
  | Random_outside_rng -> "random-outside-rng"
  | Wall_clock -> "wall-clock"
  | Poly_compare_protocol -> "poly-compare-protocol"
  | Dispatch_wildcard -> "dispatch-wildcard"
  | Lstate_mutation -> "lstate-mutation"
  | Missing_mli -> "missing-mli"
  | Gid_string_boundary -> "gid-string-boundary"
  | Runtime_boundary -> "runtime-boundary"
  | Shared_cell -> "shared-cell"
  | Hot_path_alloc -> "hot-path-alloc"

let of_name n = List.find_opt (fun rule -> String.equal (name rule) n) all

let describe = function
  | Hashtbl_iter_order ->
      "Hashtbl.iter/Hashtbl.fold visit bindings in unspecified bucket order; use \
       Plwg_util.Tbl.iter_sorted/fold_sorted/bindings_sorted with an explicit comparator"
  | Random_outside_rng ->
      "Stdlib.Random is ambient, unseeded global state; draw from the schedule's Plwg_util.Rng instead"
  | Wall_clock ->
      "wall-clock reads (Unix.gettimeofday/Unix.time/Sys.time/...) break seed-reproducibility; use \
       simulated time (Plwg_sim.Time) or suppress in benchmark-only code"
  | Poly_compare_protocol ->
      "polymorphic =/<>/compare/Hashtbl.hash on protocol values (views, view ids, node ids, \
       mappings, lineage) compares representations, not identities; use the dedicated \
       equal/compare of the type"
  | Dispatch_wildcard ->
      "a message dispatch with a catch-all case must still name every declared constructor of the \
       family it handles, so adding a constructor fails the lint instead of being silently swallowed"
  | Lstate_mutation ->
      "LWG lstate/lstatus/lflush fields may only be mutated inside functions marked [@@transition]"
  | Missing_mli -> "every module under lib/ must ship an .mli interface"
  | Gid_string_boundary ->
      "group/view ids in lib/ must stay typed (Gid.t/View_id.t or their int codes); render with \
       to_string only inside trace boundaries (Engine.trace thunks, Logs, Payload.register_printer) \
       or under an audited suppression"
  | Runtime_boundary ->
      "direct Engine access outside lib/sim/ and lib/runtime/ couples protocol code to the concrete \
       scheduler; go through the Plwg_runtime.Rt runtime surface (Sim_rt/Domains_rt pick the backend)"
  | Shared_cell ->
      "a module-global mutable cell (ref, table, array, or a global holding a mutable-bearing \
       type) is shared state under a parallel backend; annotate it [@@shared_cell \"reason\"] \
       after auditing, or move it into per-node state (see domain-safety.json)"
  | Hot_path_alloc ->
      "a function marked [@@zero_alloc_hot] must not allocate: no closures, boxed constructors, \
       tuples, records, or string building in its body; hoist the allocation, pool it, or mark \
       an audited cold branch [@alloc_ok \"reason\"]"

let under_lib path = match String.split_on_char '/' path with "lib" :: _ -> true | _ -> false

let compare_finding a b =
  let by =
    [
      (fun () -> String.compare a.file b.file);
      (fun () -> Int.compare a.line b.line);
      (fun () -> Int.compare a.col b.col);
      (fun () -> String.compare (name a.rule) (name b.rule));
      (fun () -> String.compare a.message b.message);
    ]
  in
  List.fold_left (fun acc f -> if acc <> 0 then acc else f ()) 0 by
