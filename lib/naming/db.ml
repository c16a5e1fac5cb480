open Plwg_vsync.Types

type entry = {
  lwg : Gid.t;
  lwg_view : View_id.t;
  members : Plwg_sim.Node_id.t list;
  hwg : Gid.t;
  hwg_view : View_id.t option;
  preds : View_id.t list;
}

let pp_entry ppf e =
  Format.fprintf ppf "%a:%a%a -> %a%s" Gid.pp e.lwg View_id.pp e.lwg_view Plwg_sim.Node_id.pp_list e.members
    Gid.pp e.hwg
    (match e.hwg_view with Some v -> Format.asprintf ":%a" View_id.pp v | None -> "")

(* Maps are keyed by [Gid.code]: int keys compare without allocation and
   their order equals [Gid.compare] order, so listings are unchanged. *)
module Imap = Map.Make (Int)

(* [entries] holds live entries only: [insert] refuses a superseded view
   and every growth of a superseded set drops the entries it kills.  No
   reader needs to filter. *)
type t = {
  mutable entries : entry list Imap.t; (* Gid.code of lwg -> live entries *)
  mutable superseded : View_id.Set.t Imap.t;
}

let create () = { entries = Imap.empty; superseded = Imap.empty }

let superseded_of t lwg =
  match Imap.find_opt (Gid.code lwg) t.superseded with Some s -> s | None -> View_id.Set.empty

let live_of t lwg = match Imap.find_opt (Gid.code lwg) t.entries with Some es -> es | None -> []

(* drop retired entries eagerly; the superseded set remembers them *)
let drop_dead t code dead =
  let keep entries = List.filter (fun e -> not (View_id.Set.mem e.lwg_view dead)) entries in
  t.entries <- Imap.update code (Option.map keep) t.entries

let retire t lwg views =
  if not (List.is_empty views) then begin
    let dead = List.fold_left (fun acc v -> View_id.Set.add v acc) (superseded_of t lwg) views in
    t.superseded <- Imap.add (Gid.code lwg) dead t.superseded;
    drop_dead t (Gid.code lwg) dead
  end

(* Two replicas can transiently hold different mappings for the same
   LWG view (a switch recorded at only one of them).  Merge must be
   commutative, so ties are broken by a deterministic total order; in
   normal operation a switch installs a fresh LWG view id, so this
   tie-break only resolves pathological duplicates. *)
let entry_order a b =
  let c = Gid.compare a.hwg b.hwg in
  if c <> 0 then c
  else
    let c = Option.compare View_id.compare a.hwg_view b.hwg_view in
    if c <> 0 then c else List.compare Plwg_sim.Node_id.compare a.members b.members

let insert ~resolve t entry =
  if not (View_id.Set.mem entry.lwg_view (superseded_of t entry.lwg)) then begin
    let current = live_of t entry.lwg in
    let entry =
      if resolve then
        match List.find_opt (fun e -> View_id.equal e.lwg_view entry.lwg_view) current with
        | Some existing when entry_order existing entry > 0 -> existing
        | Some _ | None -> entry
      else entry
    in
    let others = List.filter (fun e -> not (View_id.equal e.lwg_view entry.lwg_view)) current in
    t.entries <- Imap.add (Gid.code entry.lwg) (entry :: others) t.entries
  end

let set t entry =
  retire t entry.lwg entry.preds;
  insert ~resolve:false t entry

let read t lwg = List.sort (fun a b -> View_id.compare a.lwg_view b.lwg_view) (live_of t lwg)

let test_and_set t entry =
  match read t entry.lwg with
  | [] ->
      set t entry;
      read t entry.lwg
  | existing -> existing

let entry_equal a b =
  Gid.equal a.lwg b.lwg
  && View_id.equal a.lwg_view b.lwg_view
  && List.equal Plwg_sim.Node_id.equal a.members b.members
  && Gid.equal a.hwg b.hwg
  && Option.equal View_id.equal a.hwg_view b.hwg_view
  && List.equal View_id.equal a.preds b.preds

let merge t other =
  let before_entries = t.entries and before_superseded = t.superseded in
  (* union of superseded knowledge first, so dead entries never revive *)
  t.superseded <-
    Imap.union (fun _ a b -> Some (View_id.Set.union a b)) t.superseded other.superseded;
  (* only an LWG whose superseded set grew can hold newly dead entries *)
  Imap.iter
    (fun code theirs ->
      let ours = match Imap.find_opt code before_superseded with Some s -> s | None -> View_id.Set.empty in
      if not (View_id.Set.subset theirs ours) then drop_dead t code (Imap.find code t.superseded))
    other.superseded;
  Imap.iter (fun _ entries -> List.iter (fun e -> insert ~resolve:true t e) entries) other.entries;
  not (Imap.equal (List.equal entry_equal) before_entries t.entries)
  || not (Imap.equal View_id.Set.equal before_superseded t.superseded)

(* The entries name more than one HWG: which one the others are
   compared against does not matter, so no sort is needed. *)
let inconsistent = function
  | [] | [ _ ] -> false
  | first :: rest -> List.exists (fun e -> not (Gid.equal e.hwg first.hwg)) rest

let conflicting t lwg = inconsistent (live_of t lwg)

(* Imap folds in code order = Gid.compare order; prepending reverses it *)
let lwgs t =
  Imap.fold (fun code entries acc -> if List.is_empty entries then acc else Gid.of_code code :: acc) t.entries []
  |> List.rev

let conflicts t =
  Imap.fold (fun code entries acc -> if inconsistent entries then Gid.of_code code :: acc else acc) t.entries []
  |> List.rev

let is_superseded t ~lwg view_id = View_id.Set.mem view_id (superseded_of t lwg)

let snapshot t = { entries = t.entries; superseded = t.superseded }

let size t = Imap.fold (fun _ entries acc -> acc + List.length entries) t.entries 0

let pp ppf t =
  List.iter
    (fun lwg ->
      Format.fprintf ppf "@[<h>LWG %a:@ %a@]@." Gid.pp lwg
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf e ->
             Format.fprintf ppf "%a -> %a%s" View_id.pp e.lwg_view Gid.pp e.hwg
               (match e.hwg_view with Some v -> Format.asprintf ":%a" View_id.pp v | None -> "")))
        (read t lwg))
    (lwgs t)
