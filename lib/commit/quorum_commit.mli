(** Quorum commit (Skeen's quorum-based three-phase commit).

    Like 3PC, the protocol interposes pre-decision states before the final
    outcome, but termination is governed by quorums: committing requires
    [commit_quorum] (Vc) sites in the pre-commit state, aborting requires
    [abort_quorum] (Va) sites in the pre-abort state, with
    [Vc + Va > sites] so the two ack quorums always intersect.  A network
    partition can therefore block the minority side, but no two sides can
    ever decide differently — the property experiment F8 demonstrates and
    the property tests check.

    Termination rules applied by an elected leader over the states it can
    collect (each site one vote):
    - any committed site ⇒ commit; any aborted ⇒ abort;
    - at least one pre-committed, {e no} pre-aborted, and ≥ Vc reachable ⇒
      drive the uncertain ones to pre-commit, and once ≥ Vc sites are
      pre-committed, commit;
    - no pre-committed and ≥ Va reachable ⇒ drive pre-abort, and once
      ≥ Va sites are pre-aborted, abort;
    - otherwise the group is blocked until connectivity improves.

    Election epochs (round, site-id) order competing leaders: sites obey
    only the highest epoch seen, so stale leaders cannot assemble a
    quorum. *)

open Rt_types
open Protocol

type config = {
  all : Ids.site_id list;  (** Every participant site. *)
  commit_quorum : int;
  abort_quorum : int;
}

val config : all:Ids.site_id list -> ?commit_quorum:int -> ?abort_quorum:int ->
  unit -> config
(** Defaults to majority for both; validates [Vc + Va > n] and bounds. *)

(** {1 Coordinator} *)

type coord

val coordinator : config:config -> self:Ids.site_id -> coord

val coord_step : coord -> input -> coord * action list

val coord_decision : coord -> decision option

val coord_blocked : coord -> bool

(** {1 Participant} *)

type part

val participant :
  config:config ->
  self:Ids.site_id ->
  coordinator:Ids.site_id ->
  vote:bool ->
  part

val participant_recovered :
  config:config ->
  self:Ids.site_id ->
  coordinator:Ids.site_id ->
  state:participant_state ->
  part
(** Rebuilt from the log after a crash; feed it [Start] to begin inquiry. *)

val part_step : part -> input -> part * action list

val part_decision : part -> decision option

val part_state : part -> participant_state

val part_blocked : part -> bool
(** True while the participant knows it cannot terminate with current
    connectivity (its last termination attempt failed the quorum rules). *)

val part_reachable_update : part -> up:Ids.site_id list -> part
(** Replace the reachability view (partitions heal as well as form, so a
    plain [Peer_down] stream is not enough).  The next timeout acts on the
    new view. *)

val describe_coord : coord -> string
(** Canonical single-line rendering of the full coordinator state for
    explorer fingerprinting (every set in sorted order). *)

val describe_part : part -> string
(** Canonical rendering of the full participant state, including epoch,
    termination role, and reachability view. *)
