(** Shared invariant auditor.

    The single implementation of the end-of-run checks every harness runs
    against a cluster — soak, the crash-point sweep, and the nemesis
    fault campaigns all consume these, so a new invariant lands in one
    place.  All functions expect a drained cluster: faults healed,
    crashed sites recovered, and the engine run past the last client
    submission. *)

open Rt_sim
open Rt_types

type violation = { inv : string; detail : string }
(** [inv] names the invariant class ("agreement", "durability",
    "termination", "recovery", "locks", "timers"); [detail] is a
    human-readable description including the offending site/txn. *)

val pp_violation : Format.formatter -> violation -> unit

val forked_keys : Cluster.t -> (string * Ids.site_id * Ids.site_id) list
(** Keys holding the same version with different values on two sites —
    split-brain evidence.  Sorted, deduplicated. *)

val fork_freedom : Cluster.t -> violation list
(** [forked_keys] as an agreement violation (empty when fork-free). *)

val site_hygiene : Cluster.t -> violation list
(** Every site is serving, with no unresolved or blocked commit
    participants, no held locks, and no pending protocol timers. *)

val decisions :
  Cluster.t -> (Ids.Txn_id.t * (Ids.site_id * Rt_commit.Protocol.decision) list) list
(** Every site's recorded commit decisions, grouped by transaction and
    sorted by transaction id. *)

val agreement : Cluster.t -> violation list
(** No transaction both committed at one site and aborted at another. *)

val any_committed : Cluster.t -> bool
(** Whether any site recorded a commit decision for any transaction. *)

val durability : Cluster.t -> writes:(string * string) list -> violation list
(** Each (key, value) write is present on every replica of the key's
    shard.  Only meaningful for writes known to have committed — gate on
    {!any_committed} (or the client outcome) before calling. *)

val convergence : Cluster.t -> violation list
(** Per-shard replica convergence ({!Cluster.converged}) as a durability
    violation.  Empty when the cluster's replica control resolves
    versions on read (majority quorum): its writes reach a write quorum,
    not every copy, so stale copies are legal.  Callers may downgrade
    this to a note for replica-control schemes that document divergence
    under partitions (ROWA-A). *)

val quiescence : Cluster.t -> settle:Time.t -> violation list
(** Runs the cluster [settle] further and fails if any commit-protocol
    message was sent during the window: a machine still resending after
    the drain horizon is an undrained protocol. *)

val standard :
  ?writes:(string * string) list -> ?settle:Time.t -> Cluster.t -> violation list
(** The full battery: optional {!quiescence} (when [settle] is given),
    then hygiene, agreement, fork-freedom, durability of [writes] (when
    something committed), and convergence, in that order. *)
