(** Two-phase commit: coordinator and participant state machines.

    Three presumption variants are supported, differing in which log
    records are forced and which decisions are acknowledged — the classic
    trade-off measured in experiment T1:

    - {b Presumed nothing} (PrN): both decisions force-logged by the
      coordinator and every participant; both decisions acknowledged, and
      the coordinator writes [End] only after all acks.
    - {b Presumed abort} (PrA): no coordinator abort record and no abort
      acks — a site finding no information presumes abort.  Commits are
      forced and acknowledged as in PrN.
    - {b Presumed commit} (PrC): the coordinator force-writes a
      [Collecting] record before soliciting votes; commit needs no acks
      (missing information presumes commit), aborts are forced and
      acknowledged.

    The coordinator site is also a participant: it runs both machines and
    the environment loops messages addressed to itself locally.  2PC
    blocks: a participant in the uncertain window whose coordinator has
    crashed emits [Blocked] and keeps asking (cooperatively) until someone
    who knows the outcome answers. *)

open Rt_types
open Protocol

type variant = Presumed_nothing | Presumed_abort | Presumed_commit

val variant_name : variant -> string

(** {1 Coordinator} *)

type coord

val coordinator :
  variant:variant ->
  participants:Ids.site_id list ->
  coord
(** [participants] are every site that must vote, including the
    coordinator's own site if it holds data. *)

val coordinator_recovered :
  variant:variant ->
  participants:Ids.site_id list ->
  logged:[ `Decision of decision | `Collecting | `Nothing ] ->
  coord
(** Rebuild a coordinator from its log after a crash.  [`Decision d]: the
    decision record was durable — re-distribute if the variant requires
    acks.  [`Collecting]: presumed-commit's begin record with no decision —
    abort.  [`Nothing]: answer inquiries with the variant's presumption.
    Feed the machine [Start] to kick off any re-distribution. *)

val coord_step : coord -> input -> coord * action list

val coord_decision : coord -> decision option

val coord_done : coord -> bool
(** The coordinator has written [End] (or needs nothing more). *)

(** [presumption variant] is the reply a site must give for a transaction
    it has no information about. *)
val presumption : variant -> decision

(** {1 Participant} *)

type part

val participant :
  ?read_only:bool ->
  variant:variant ->
  self:Ids.site_id ->
  coordinator:Ids.site_id ->
  peers:Ids.site_id list ->
  vote:bool ->
  unit ->
  part
(** [peers] are the other participants, consulted by cooperative
    termination when the coordinator does not answer.  [read_only]
    (default false) enables the read-only optimization: a yes vote
    becomes [Vote_read_only], the participant releases immediately
    ([Forget] action) and takes no part in phase 2. *)

val participant_recovered :
  variant:variant ->
  self:Ids.site_id ->
  coordinator:Ids.site_id ->
  peers:Ids.site_id list ->
  part
(** Rebuild a prepared-but-undecided participant after a crash; it is in
    the uncertain window and asks around when fed [Start]. *)

val part_step : part -> input -> part * action list

val part_decision : part -> decision option

val part_state : part -> participant_state

val part_blocked : part -> bool
(** Currently in the uncertain window with no way to decide. *)

val describe_coord : coord -> string
(** Canonical single-line rendering of the full coordinator state —
    phase constructor plus every vote/ack set in sorted order — used by
    the schedule explorer to fingerprint protocol machines.  Equal
    descriptions imply behaviourally identical machines. *)

val describe_part : part -> string
(** Canonical rendering of the full participant state (see
    {!describe_coord}). *)
