(** The commit protocols, declared once.

    Every layer that needs to know which atomic-commitment protocols
    exist, or how one of them is built, asks this module: the cluster
    sites and the sandbox build their machines here, the harnesses take
    their protocol lists from {!all}, and [Config.commit_protocol] is
    this type.  Adding a protocol means one machine module plus one
    registry entry: a constructor here and its arm in each function of
    [commit_protocol.ml]. *)

open Rt_types
open Protocol

type t =
  | Two_phase of Two_pc.variant
  | Three_phase
  | Quorum_commit of { commit_quorum : int option; abort_quorum : int option }
      (** [None] thresholds default to majority. *)
  | Paxos_commit of { f : int option }
      (** Paxos Commit with 2F+1 acceptors and F+1 quorums; [None] picks
          the largest F the participant set supports.  A transaction
          whose effective F is 0 runs the 2PC-PrN machines, which is what
          Paxos Commit with a single acceptor amounts to. *)

val name : t -> string
(** ["2PC-PrN"], ["2PC-PrA"], ["2PC-PrC"], ["3PC"], ["QC"], ["Paxos"]. *)

val all : (string * t) list
(** Every protocol under its {!name}, thresholds at their defaults, in
    the order the harness reports list them. *)

val of_name : string -> t option
(** Case-insensitive inverse of {!name} over {!all}. *)

val validate : t -> sites:int -> unit
(** Raises [Invalid_argument] when the configured thresholds cannot hold
    in a [sites]-site cluster: quorums that are non-positive or do not
    intersect, a negative F, or an F needing more than [sites]
    acceptors. *)

(** {1 Resolver}

    A transaction runs its protocol over its own participant set, which
    under sharding can be smaller than the cluster the thresholds were
    configured for.  Out-of-range thresholds are clamped to what the set
    supports rather than rejected: each quorum-commit threshold to
    [1, n] for [n] participants (majority when unset, and majority for
    both when the clamped pair would no longer intersect), and F as
    below.  The factory builds every machine with these effective
    values. *)

val paxos_f :
  int option -> participants:Ids.site_id list -> coordinator:Ids.site_id -> int
(** Effective Paxos F over [participants] (ascending, no duplicates):
    the configured value clamped to [0, k/2] for the [k] participants
    other than [coordinator], or [k/2] when unset. *)

val label : t -> sites:int -> string
(** {!name} with the thresholds a transaction over [sites] participants,
    coordinator included, resolves to: ["QC(2,2)"], ["Paxos(F=1)"]. *)

(** {1 Factory}

    Machines for one transaction over [participants] (ascending), whose
    coordinator runs at the origin site [coordinator] (the coordinator
    machine's [self]).  Paxos Commit resolves the transaction's {!paxos_f}
    once per machine: at 0 every function below, {!presumption}
    included, answers as for [Two_phase Presumed_nothing] (with no
    read-only vote); at 1 or more it builds {!Paxos_commit}'s machines. *)

val coordinator :
  t -> participants:Ids.site_id list -> self:Ids.site_id -> Erased.t

val participant :
  t -> participants:Ids.site_id list -> coordinator:Ids.site_id ->
  self:Ids.site_id -> vote:bool -> read_only:bool -> Erased.t
(** [read_only] (the site wrote nothing) enables 2PC's read-only vote;
    the other protocols ignore it. *)

val recovered_participant :
  t -> participants:Ids.site_id list -> coordinator:Ids.site_id ->
  self:Ids.site_id -> state:participant_state -> Erased.t
(** Rebuilt from a durable in-doubt record; feed it [Start] to begin
    termination. *)

val recovered_coordinator :
  t -> participants:Ids.site_id list -> self:Ids.site_id ->
  logged:[ `Decision of decision | `Collecting | `Nothing ] ->
  Erased.t option
(** A coordinator rebuilt from its own log, or [None] when the protocol
    resumes none: 3PC and quorum commit leave termination to the
    participants, and Paxos Commit with F >= 1 and no logged decision
    must stay amnesiac while a recovery leader may have decided. *)

val presumption :
  t -> participants:Ids.site_id list -> coordinator:Ids.site_id ->
  decision option
(** What an origin that has lost all memory of a transaction over
    [participants] may answer for it: the 2PC variant's presumption,
    which includes Paxos Commit at effective F = 0; nothing otherwise. *)
