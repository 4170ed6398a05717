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

val site_hygiene : Cluster.t -> violation list
(** Every site is serving, with no unresolved or blocked commit
    participants, no held locks, and no pending protocol timers. *)

val decisions :
  Cluster.t -> (Ids.Txn_id.t * (Ids.site_id * Rt_commit.Protocol.decision) list) list
(** Every site's recorded commit decisions, grouped by transaction and
    sorted by transaction id. *)

val agreement : Cluster.t -> violation list
(** No transaction both committed at one site and aborted at another. *)

val durability : Cluster.t -> writes:(string * string) list -> violation list
(** Each (key, value) write is present on every replica of the key's
    shard.  Only meaningful for writes known to have committed: gate on
    the client outcome before calling ({!standard} calls it only when
    some site recorded a commit). *)

val divergence : violation
(** The one violation {!convergence} raises:
    [durability: replica stores diverge within a shard]. *)

val convergence : Cluster.t -> violation list
(** Per-shard replica convergence ({!Cluster.converged}): [[divergence]]
    when two copies of one shard differ.  Empty when the cluster's
    replica control resolves versions on read (majority quorum): its
    writes reach a write quorum, not every copy, so stale copies are
    legal.  Under every other scheme it is a violation like any other;
    only a safety envelope declared before the run (the nemesis
    campaign's, for available copies and primary copy under site
    crashes or cuts) may set it aside. *)

val quiescence : Cluster.t -> settle:Time.t -> violation list
(** Runs the cluster [settle] further and fails if any commit-protocol
    message was sent during the window: a machine still resending after
    the drain horizon is an undrained protocol. *)

val standard :
  ?writes:(string * string) list -> ?settle:Time.t -> Cluster.t -> violation list
(** The full battery: optional {!quiescence} (when [settle] is given),
    then hygiene, agreement, fork-freedom, durability of [writes] (when
    something committed), and convergence, in that order. *)
