(** Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit").

    One Paxos consensus instance per participant decides that
    participant's vote (Commit = "prepared", Abort = "refused"); the
    transaction commits iff every instance chooses Commit.  All instances
    share one ballot space whose ballot-0 leader is the transaction
    coordinator, so the failure-free path costs the same message pattern
    as 2PC plus the extra acceptor fan-out.  A set of 2F+1 acceptors with
    F+1 quorums makes the outcome survive any F simultaneous failures:
    when the coordinator stalls, a participant usurps leadership at a
    higher ballot, collects phase-1 reports from a quorum, proposes each
    instance's highest accepted value (Abort for free instances), and
    decides once each instance has a phase-2 quorum.

    These machines need [f >= 1].  With [f = 0] the coordinator would be
    the sole acceptor, which is {!Two_pc} with presumed nothing (Gray &
    Lamport), so {!Commit_protocol} builds the 2PC-PrN machines for such
    a transaction. *)

open Rt_types
open Protocol

type config = private {
  all : Ids.site_id list;  (** Participants, ascending. *)
  coordinator : Ids.site_id;
  f : int;  (** Tolerated faults; quorums have [f + 1] acceptors. *)
  acceptors : Ids.site_id list;
      (** The [2f + 1] acceptor sites: the coordinator first, then the
          lowest-numbered other participants ascending. *)
}

val config :
  all:Ids.site_id list -> coordinator:Ids.site_id -> ?f:int -> unit -> config
(** Validates and builds a configuration.  [f] defaults to the maximum
    the site count supports ([(n-1)/2] for [n] participants including
    the coordinator's site).  Raises [Invalid_argument] if [f < 1] or
    there are fewer than [2f+1] candidate acceptor sites. *)

val quorum : config -> int
(** [f + 1]. *)

(** {1 Acceptor core}

    Exposed for the property-test suite: ballot safety and quorum
    intersection are checked directly against these transitions. *)

type acceptor

val acc_init : config -> acceptor

val acc_p1a :
  acceptor ->
  ballot:epoch ->
  acceptor
  * [ `P1b of (Ids.site_id * epoch * decision) list | `Nack of epoch ]
(** Phase 1a: promise [ballot] (and report all accepted values) iff it is
    at least the highest ballot promised so far. *)

val acc_p2a :
  acceptor ->
  ballot:epoch ->
  rm:Ids.site_id ->
  v:decision ->
  acceptor * [ `P2b of decision | `Nack of epoch ]
(** Phase 2a for instance [rm].  A value accepted at an equal ballot is
    never overwritten; the duplicate is re-acknowledged with the original
    value. *)

val acc_accepted : acceptor -> (Ids.site_id * epoch * decision) list
(** The accepted (instance, ballot, value) triples, ascending instance. *)

(** {1 Coordinator} *)

type coord

val coordinator : config:config -> self:Ids.site_id -> coord
(** Raises [Invalid_argument] if [self] is not [config.coordinator]. *)

val coordinator_recovered :
  config:config -> self:Ids.site_id -> decision:decision -> coord
(** Rebuild after a crash from the logged [decision], which is
    redistributed to every participant until acknowledged.  A coordinator
    that logged no decision is not rebuilt: a recovery leader may have
    decided meanwhile, so the site must stay amnesiac and let the
    election terminate. *)

val coord_step : coord -> input -> coord * action list
val coord_decision : coord -> decision option
val coord_blocked : coord -> bool

(** {1 Participant} *)

type part

val participant :
  config:config -> self:Ids.site_id -> vote:bool -> part

val participant_recovered :
  config:config ->
  self:Ids.site_id ->
  state:participant_state ->
  part
(** Rebuild from the durable log.  The volatile acceptor state is gone,
    so a recovered acceptor abstains from every future ballot (2F+1
    acceptors tolerate F such losses).  Feed [Start] to begin
    termination. *)

val part_step : part -> input -> part * action list
val part_decision : part -> decision option
val part_state : part -> participant_state
val part_blocked : part -> bool

val part_reachable_update : part -> up:Ids.site_id list -> part
(** Replace the reachability view (self is always included). *)

(** {1 Canonical descriptions (explorer fingerprints)} *)

val describe_coord : coord -> string
val describe_part : part -> string
