(** Replica-control protocols as pure planners.

    A replica-control protocol answers three questions for a replicated
    keyspace slice: which physical copies must a logical read contact,
    which must a logical write install at, and how are stale copies
    detected.  The cluster engine does the messaging; these planners make
    the policy explicit and unit-testable.

    Plans are computed against an explicit [replicas] set — the sites
    holding copies of the shard being accessed, as assigned by
    {!Rt_placement.Placement}.  Under full replication the set is every
    site and the planners reduce to the paper's classical behaviour; a
    sharded placement passes each shard's replica set instead, so "write
    all" means all copies {e of that shard}.

    Protocols:
    - {b ROWA} (read-one/write-all): reads are local, writes must reach
      every copy — any site down makes updates unavailable.
    - {b Available copies} (ROWA-A): writes go to every {e up} copy, so
      updates survive failures; a recovering copy must catch up before it
      may serve reads again.  Not partition-safe (both sides think the
      other is down), which experiment F8 demonstrates.
    - {b Quorum consensus} (weighted voting): reads and writes each
      gather a vote quorum; version numbers identify the current copy.
      Partition-safe by quorum intersection.
    - {b Primary copy}: one distinguished site orders all access; backups
      receive updates synchronously but serve no reads by default.  If
      the primary fails, the lowest up site succeeds it (no consensus —
      detector disagreement can transiently yield two acting primaries,
      which is the classical argument for quorums).

    A plan is a set of sites, or [None] when the operation is unavailable
    under the current up-set. *)

open Rt_types

type t =
  | Rowa
  | Available_copies
  | Quorum of Rt_quorum.Votes.t
  | Primary_copy of Ids.site_id

val name : t -> string

val of_name : sites:int -> string -> t option
(** The command-line names: ["rowa"]; ["rowa-a"] or
    ["available-copies"]; ["quorum"] or ["majority"], majority quorums
    over [sites] sites; ["primary"], primary copy at site 0.  [None] for
    any other string. *)

val rowa : t

val available_copies : t

val majority : sites:int -> t
(** Quorum consensus with one vote per site and majority thresholds. *)

val quorum : read_quorum:int -> write_quorum:int -> sites:int -> t

val primary : Ids.site_id -> t

val read_plan :
  t -> self:Ids.site_id -> up:(Ids.site_id -> bool) ->
  replicas:Ids.site_id list -> Ids.site_id list option
(** Sites a logical read must contact, out of the shard's [replicas].
    Prefers [self] whenever the protocol allows a local read and [self]
    holds a copy.  [None]: read unavailable.

    Quorum note: when [replicas] is every site of the vote assignment the
    configured thresholds apply unchanged; a proper subset votes with
    one-vote majorities over the subset (global weighted thresholds are
    not meaningful against a fraction of the votes). *)

val write_plan :
  t -> self:Ids.site_id -> up:(Ids.site_id -> bool) ->
  replicas:Ids.site_id list -> Ids.site_id list option
(** Sites a logical write must install at ("write all" = all replicas of
    the shard).  [None]: update unavailable. *)

val read_needs_version_resolution : t -> bool
(** Quorum reads must compare copy versions and take the newest; the
    other protocols keep all live copies identical. *)

val needs_catchup_on_recovery : t -> bool
(** Available-copies (and ROWA after repair) require a recovering copy to
    validate/catch up from a live copy before serving reads. *)

val trusts_failure_detector : t -> bool
(** Whether keeping the copies identical rests on an accurate failure
    detector: available copies writes only the copies it believes up,
    and primary copy promotes a successor when it believes the primary
    down, so a wrong suspicion (a crash seen late, or a cut) lets copies
    diverge.  ROWA writes every copy and quorums intersect, so neither
    does. *)
