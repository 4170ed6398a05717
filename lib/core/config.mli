(** Cluster configuration: which protocols run and what everything costs. *)

open Rt_sim

(** The protocol registry's type, re-exported so that [Config.Two_phase]
    and the other constructors name it; see {!Rt_commit.Commit_protocol}. *)
type commit_protocol = Rt_commit.Commit_protocol.t =
  | Two_phase of Rt_commit.Two_pc.variant
  | Three_phase
  | Quorum_commit of { commit_quorum : int option; abort_quorum : int option }
  | Paxos_commit of { f : int option }

type concurrency = Locking | Timestamp
(** Distributed concurrency control at the replicas: strict two-phase
    locking (waits, deadlock handling), or basic timestamp ordering with
    the Thomas write rule (never waits, restarts on conflict). *)

val concurrency_name : concurrency -> string

type t = {
  sites : int;
  concurrency : concurrency;
  commit_protocol : commit_protocol;
  replica_control : Rt_replica.Replica_control.t;
  placement : Rt_placement.Placement.t option;
      (** Key→shard→replica-set assignment.  [None] (the default) is full
          replication: one shard held by every site, the paper's classical
          setting.  A sharded placement makes every read/write plan,
          commit participant set, checkpoint, and catch-up transfer
          per-shard; cross-shard transactions run the configured commit
          protocol over the union of the touched shards' replica sets. *)
  link : Rt_net.Net.link;  (** Default link between every pair of sites. *)
  force_latency : Time.t;  (** Stable-storage force cost. *)
  group_commit_window : Time.t;
      (** WAL group-commit flush window: a force request arms a per-site
          flush timer instead of starting the device immediately, so every
          force arriving within the window shares one device cycle.  Zero
          (the default) starts the device on the first force, which is the
          classical per-transaction behaviour (busy-device coalescing
          still applies either way). *)
  batch_window : Time.t option;
      (** Per-link message batching: messages to the same destination
          within the window travel as one wire envelope (one latency
          sample and one loss/duplication roll for the whole envelope,
          FIFO unpack at delivery).  [None] (the default) sends every
          message as its own envelope. *)
  heartbeat_interval : Time.t;
  checkpoint_every : int;
      (** Take a checkpoint every n committed transactions (0 = never). *)
  probe_deadlocks : bool;
      (** Detect distributed deadlocks with Chandy–Misra–Haas edge-chasing
          probes instead of waiting out the lock timeout (which remains as
          a backstop).  Default off. *)
  read_only_optimization : bool;
      (** 2PC only: participants that performed no writes vote read-only,
          release immediately, and skip phase 2 (default off so the
          baseline experiments measure the unoptimized protocol). *)
  storage_faults : bool;
      (** The stable-storage device may fail: a crash given [~torn] (see
          {!Site.crash}) tears the in-flight WAL group-commit cycle, and
          checkpoints keep the log suffix of the previous snapshot so a
          corrupt latest snapshot can fall back to it.  Default [false]
          — the perfect device the paper assumes; every harness that
          does not inject disk faults runs with it. *)
  px_early_stash_cap : int;
      (** Maximum early (pre-machine) Paxos messages stashed per
          transaction at a participant; on overflow the oldest stashed
          message is dropped (the sender retransmits).  Must be
          positive; default 32. *)
  seed : int;
}

val default : ?sites:int -> unit -> t
(** Three sites, 2PC presumed-abort, ROWA, full replication, exponential
    100µs links, 50µs log force. *)

val placement : t -> Rt_placement.Placement.t
(** The effective placement: the configured one, or the degenerate
    full-replication placement over [sites] when none is set. *)

val batched : t -> t
(** The harnesses' "+gcb" arm: a 20µs WAL group-commit window and a
    10µs link-batching window — short against the link latency, so only
    forces and sends that are already concurrent share a device cycle or
    an envelope. *)

val validate : t -> unit
(** Raises [Invalid_argument] on inconsistent settings: non-positive site
    count, a placement whose site count or replication degree disagrees
    with [sites], a primary site out of range, commit-protocol
    thresholds the cluster cannot meet (see
    {!Rt_commit.Commit_protocol.validate}), a negative force latency or
    group-commit window, a non-positive batch window or heartbeat
    interval, a negative checkpoint interval, or a non-positive
    [px_early_stash_cap]. *)
