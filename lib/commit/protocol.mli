(** Shared vocabulary for atomic-commitment state machines.

    Every protocol (2PC and its presumption variants, 3PC, quorum commit)
    is expressed as pure transition functions from [input] to a new state
    plus a list of [action]s.  The environment — a simulated site, or a
    test driver — interprets actions: it ships messages, performs (forced)
    log writes and reports their completion, runs timers, and surfaces the
    final decision to the transaction manager.

    Keeping the machines pure makes them directly checkable: unit tests
    drive exact interleavings, property tests assert agreement/validity
    across randomly generated schedules, and a small exhaustive explorer
    covers every crash point. *)

open Rt_types

type decision = Commit | Abort

val pp_decision : Format.formatter -> decision -> unit

val decision_equal : decision -> decision -> bool

val decision_compare : decision -> decision -> int
(** Total order on outcomes (replay-deterministic sorting of decision
    lists; never compare decisions polymorphically). *)

(** Protocol messages.  The transaction id is carried by the envelope at
    the transport layer, not here. *)
type msg =
  | Vote_req  (** Coordinator solicits votes (2PC/3PC phase 1). *)
  | Vote_yes
  | Vote_no
  | Vote_read_only
      (** 2PC read-only optimization: the participant performed no writes,
          releases immediately, and skips phase 2 entirely. *)
  | Precommit_msg  (** 3PC / quorum commit: enter the pre-commit state. *)
  | Precommit_ack
  | Decision_msg of decision
  | Decision_ack
  | Decision_req  (** Termination: "what was decided?" *)
  | Decision_unknown
      (** Reply when the asked site is itself uncertain. *)
  | State_req  (** 3PC termination: new coordinator collects states. *)
  | State_report of participant_state
  | Pq_state_req of epoch
      (** Quorum-commit termination: epoch-tagged state collection. *)
  | Pq_state_report of epoch * participant_state
  | Pq_precommit of epoch
  | Pq_precommit_ack of epoch
  | Pq_preabort of epoch
  | Pq_preabort_ack of epoch
  | Px_p1a of epoch
      (** Paxos Commit: a new leader's prepare, covering every consensus
          instance of the transaction at once (one ballot space is shared
          by all per-participant instances). *)
  | Px_p1b of epoch * (Ids.site_id * epoch * decision) list
      (** Acceptor's promise: for each instance (keyed by the participant
          whose vote it decides, ascending site order) the highest-ballot
          value it has accepted.  Free instances are omitted. *)
  | Px_p2a of epoch * Ids.site_id * decision
      (** Phase 2a for one instance.  At ballot [(0, origin)] this is the
          participant's own vote (Commit = "prepared", Abort = "refused");
          at higher ballots it is a recovery leader's proposal. *)
  | Px_p2b of epoch * Ids.site_id * decision
      (** Acceptor acknowledges accepting [decision] for the instance. *)
  | Px_nack of epoch
      (** Acceptor refuses a stale ballot and reports the highest ballot
          it has promised, so deposed leaders learn about their demotion
          instead of re-bidding blindly. *)

and participant_state =
  | P_uncertain
  | P_precommitted
  | P_preaborted  (** Quorum commit only. *)
  | P_committed
  | P_aborted
      (** Abstract state a participant reports during termination. *)

and epoch = int * Ids.site_id
(** Election epochs order competing termination coordinators: a round
    counter with the coordinator's site id as tie-break.  Sites only obey
    the highest epoch they have seen, which is what makes quorum-commit
    decisions safe under partitions. *)

val epoch_compare : epoch -> epoch -> int

val pp_msg : Format.formatter -> msg -> unit

(** Log records the machines ask the environment to write.  [`Forced]
    means the action's continuation input ([Log_done]) must only be fed
    back once the record is durable. *)
type log_tag =
  | L_collecting  (** Presumed-commit coordinator's begin record. *)
  | L_prepared
  | L_precommit
  | L_preabort  (** Quorum commit only. *)
  | L_decision of decision
  | L_end

type timer = T_votes | T_decision | T_precommit_ack | T_state | T_resend

val timer_compare : timer -> timer -> int
(** Total order on timer kinds, for deterministic timer scheduling. *)

val timer_point : timer -> string
(** Stable name, e.g. ["votes"]: engine label, crash-point suffix, and
    what {!pp_action} prints. *)

type action =
  | Send of Ids.site_id * msg
  | Log of log_tag * [ `Forced | `Lazy ]
      (** For [`Forced], the environment must deliver [Log_done tag] when
          durable; [`Lazy] writes need no completion input. *)
  | Deliver of decision
      (** Surface the outcome to the local transaction manager (commit or
          roll back the local effects, release locks). Emitted exactly
          once per machine run. *)
  | Set_timer of timer * Rt_sim.Time.t
  | Clear_timer of timer
  | Blocked
      (** The machine cannot make progress until some site recovers —
          emitted when 2PC termination exhausts its options.  Purely
          informational, used to measure blocking. *)
  | Forget
      (** Local involvement is over with no decision to remember: release
          locks and buffers (read-only participants after voting). *)

val pp_action : Format.formatter -> action -> unit

type input =
  | Start  (** Kick off the protocol (coordinator only). *)
  | Recv of Ids.site_id * msg
  | Log_done of log_tag
  | Timeout of timer
  | Peer_down of Ids.site_id
      (** Failure detector hint; machines may use it to short-circuit
          waiting for a dead site. *)
  | Peers_reachable of Ids.site_id list
      (** Full replacement of the reachability view (partitions heal as
          well as form).  Used by the 3PC and quorum-commit termination
          machinery; other machines ignore it. *)

val input_point : input -> string
(** Stable, site-free name of the step boundary an input represents, e.g.
    ["recv-decision-commit"], ["logged-prepared"], ["timeout-votes"].  The
    crash-point sweep keys injections on these names (plus an occurrence
    index, since the same point can recur). *)

(** Protocol timer periods. *)
type timeouts = {
  vote_collect : Rt_sim.Time.t;  (** Coordinator waits for votes. *)
  decision_wait : Rt_sim.Time.t;  (** Participant waits for the outcome. *)
  resend_every : Rt_sim.Time.t;  (** Termination retry period. *)
}

val default_timeouts : timeouts
(** The one set every commit machine runs with (50 ms, 50 ms, 100 ms);
    Site also paces its orphan sweep and catch-up retries by it. *)

(** {1 Helpers shared by the machines}

    The [_str] renderings build the machines' canonical descriptions
    (explorer state fingerprints); changing one changes every digest. *)

module Sset : Set.S with type elt = Ids.site_id

val send_to : Sset.t -> msg -> action list
(** One [Send] per member, in ascending site order. *)

val set_str : Sset.t -> string
val dec_str : decision -> string
val epoch_str : epoch -> string
val reports_str : (Ids.site_id * participant_state) list -> string
