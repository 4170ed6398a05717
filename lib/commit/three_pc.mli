(** Three-phase commit (Skeen), non-blocking under site crashes.

    Phase 1 collects votes as in 2PC; a unanimous Yes moves the group
    through an explicit {e pre-commit} phase before anyone commits, which
    removes the 2PC uncertainty window: a recovering group can always
    deduce a safe outcome from its members' states.

    Termination protocol: when a participant times out waiting for the
    coordinator, the operational site with the smallest id elects itself
    leader, collects everyone's state, and applies Skeen's rules — any
    committed ⇒ commit; any aborted ⇒ abort; any pre-committed ⇒ drive the
    rest through pre-commit then commit; all uncertain ⇒ abort.  This is
    correct for crash-stop failures with reliable failure detection (the
    classical 3PC assumption); it is {e not} partition-safe — that is
    quorum commit's job ({!Quorum_commit}). *)

open Rt_types
open Protocol

(** {1 Coordinator} *)

type coord

val coordinator :
  participants:Ids.site_id list -> coord

val coord_step : coord -> input -> coord * action list

val coord_decision : coord -> decision option

(** {1 Participant} *)

type part

val participant :
  self:Ids.site_id ->
  coordinator:Ids.site_id ->
  all:Ids.site_id list ->
  vote:bool ->
  part
(** [all] is the full participant set, [self] included. *)

val participant_recovered :
  self:Ids.site_id ->
  coordinator:Ids.site_id ->
  all:Ids.site_id list ->
  state:participant_state ->
  part
(** Rebuild a participant after a crash from its logged state
    ([P_uncertain] if prepared, [P_precommitted] if pre-committed); it
    immediately runs the termination protocol.  Feed it [Start]. *)

val part_step : part -> input -> part * action list

val part_decision : part -> decision option

val part_state : part -> participant_state

val part_blocked : part -> bool
(** 3PC participants never stay blocked while any peer is up; exposed for
    symmetric measurement against 2PC in experiment F5. *)

val describe_coord : coord -> string
(** Canonical single-line rendering of the full coordinator state for
    explorer fingerprinting (every set in sorted order). *)

val describe_part : part -> string
(** Canonical rendering of the full participant state, including
    termination role and reachability view. *)
