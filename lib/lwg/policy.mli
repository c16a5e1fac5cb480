(** The mapping policies of the dynamic light-weight group service —
    a direct transcription of the paper's Figure 1.

    All decisions are deterministic functions of memberships and group
    identifiers, so every process that evaluates a rule on the same
    configuration reaches the same conclusion (the paper's safeguard
    against incompatible mapping decisions). *)

open Plwg_sim
open Plwg_vsync.Types

type params = { k_m : int;  (** minority threshold *) k_c : int  (** closeness threshold *) }

val default_params : params
(** [k_m = 4], [k_c = 4] — the prototype setting of Section 3.2: a LWG
    maps onto a HWG when their common members exceed 75% of the HWG and
    the mapping stays until that drops to 25%. *)

val is_minority : params -> inner:Node_id.Set.t -> outer:Node_id.Set.t -> bool
  [@@test_support "tests pin the policy predicates"]
(** Figure 1 "minority": [inner ⊆ outer] and
    [|inner| <= |outer| / k_m].  False when [inner] is not a subset. *)

val close_enough : params -> inner:Node_id.Set.t -> outer:Node_id.Set.t -> bool
  [@@test_support "tests pin the policy predicates"]
(** Figure 1 "closeness": [inner ⊆ outer] and
    [|outer| - |inner| <= |outer| / k_c]. *)

val share_decision :
  params -> Gid.t * Node_id.Set.t -> Gid.t * Node_id.Set.t -> [ `Collapse_into of Gid.t | `Keep ]
(** Figure 1 share rule for a pair of HWGs.  When the overlap [k]
    satisfies [k > sqrt (2 n1 n2)] (with [n1], [n2] the exclusive
    member counts) and neither HWG is a minority subset of the other,
    the pair collapses into the HWG with the {e larger} group id (the
    same total-order tie-break the reconciliation rule uses). *)

val interference_decision :
  params ->
  lwg_members:Node_id.Set.t ->
  hwg:Gid.t * Node_id.Set.t ->
  candidates:(Gid.t * Node_id.Set.t) list ->
  [ `Stay | `Switch_to of Gid.t | `Create_new ]
(** Figure 1 interference rule for one LWG.  If the LWG is a minority
    of its HWG, switch it to a close-enough candidate HWG (the one with
    the largest group id, for determinism), or request a fresh HWG with
    identical membership when no candidate fits. *)

val shrink_decision : member_of_hwg:bool -> lwgs_mapped_here:int -> [ `Stay | `Leave ]
(** Figure 1 shrink rule: a process that belongs to a HWG carrying none
    of its LWGs should leave it. *)
