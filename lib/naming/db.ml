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

(* [Imap.find] with a handler, not [find_opt]: a lookup allocates
   nothing, which keeps a merge with no news allocation-free. *)
let superseded_at t code = match Imap.find code t.superseded with s -> s | exception Not_found -> View_id.Set.empty
let superseded_of t lwg = superseded_at t (Gid.code lwg)
let live_at t code = match Imap.find code t.entries with es -> es | exception Not_found -> []
let live_of t lwg = live_at t (Gid.code lwg)

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

let entry_equal a b =
  Gid.equal a.lwg b.lwg
  && View_id.equal a.lwg_view b.lwg_view
  && List.equal Plwg_sim.Node_id.equal a.members b.members
  && Gid.equal a.hwg b.hwg
  && Option.equal View_id.equal a.hwg_view b.hwg_view
  && List.equal View_id.equal a.preds b.preds

(* The inserted entry goes to the head of its LWG's list, replacing the
   one of the same view.  When that one already heads the list and
   stays (the resolution keeps it, or the newcomer equals it), the list
   is left as it is: re-receiving an entry allocates nothing. *)
let insert ~resolve t entry =
  let code = Gid.code entry.lwg in
  if not (View_id.Set.mem entry.lwg_view (superseded_at t code)) then
    match live_at t code with
    | head :: _
      when View_id.equal head.lwg_view entry.lwg_view
           && ((resolve && entry_order head entry > 0) || entry_equal head entry) ->
        ()
    | current ->
        (let entry =
           if resolve then
             match List.find_opt (fun e -> View_id.equal e.lwg_view entry.lwg_view) current with
             | Some existing when entry_order existing entry > 0 -> existing
             | Some _ | None -> entry
           else entry
         in
         let others = List.filter (fun e -> not (View_id.equal e.lwg_view entry.lwg_view)) current in
         t.entries <- Imap.add code (entry :: others) t.entries)
        [@alloc_ok "a new or replaced entry: news"]
[@@zero_alloc_hot]

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

(* Grows our superseded set for one LWG by the peer's and drops the
   entries that die; true iff the set grew.  A peer set we already hold
   costs membership tests only: [View_id.Set.subset] allocates when the
   two trees differ in shape, as two replicas' sets built along
   different histories do.  [within] tests against [!ours], so one
   closure serves a whole merge. *)
let absorb_superseded t ~ours ~within code theirs =
  match Imap.find code t.superseded with
  | mine when theirs == mine || (ours := mine; View_id.Set.for_all within theirs) -> false
  | mine ->
      (let dead = View_id.Set.union mine theirs in
       t.superseded <- Imap.add code dead t.superseded;
       drop_dead t code dead)
      [@alloc_ok "the peer knows a retirement we lack: news"];
      true
  | exception Not_found ->
      (t.superseded <- Imap.add code theirs t.superseded;
       drop_dead t code theirs)
      [@alloc_ok "the peer knows a retirement we lack: news"];
      true
[@@zero_alloc_hot]

let rec insert_all t = function
  | [] -> ()
  | e :: rest ->
      insert ~resolve:true t e;
      insert_all t rest
[@@zero_alloc_hot]

(* Inserts the peer's entries of one LWG; true iff the LWG's live list
   differs afterwards, order included.  The lists are compared after
   all of them: inserting a multi-entry list one entry at a time
   reorders ours mid-way, so a per-insert flag would report changes the
   final state does not have. *)
let absorb_entries t code theirs =
  let before = live_at t code in
  insert_all t theirs;
  let after = live_at t code in
  after != before && not (List.equal entry_equal before after)
[@@zero_alloc_hot]

(* Superseded knowledge is absorbed first, so dead entries never revive.
   Only an LWG whose superseded set grew can hold newly dead entries, so
   [changed] is the growth of any set or a changed live list of an LWG
   the peer names: exactly "some live list or superseded set differs
   from before the merge". *)
let merge t other =
  let ours = (ref View_id.Set.empty [@alloc_ok "one cell per merge"]) in
  let within = (fun v -> View_id.Set.mem v !ours) [@alloc_ok "one closure per merge"] in
  let changed =
    Imap.fold
      ((fun code theirs changed -> absorb_superseded t ~ours ~within code theirs || changed)
      [@alloc_ok "one closure per merge"])
      other.superseded false
  in
  Imap.fold
    ((fun code theirs changed -> absorb_entries t code theirs || changed) [@alloc_ok "one closure per merge"])
    other.entries changed
[@@zero_alloc_hot]

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
