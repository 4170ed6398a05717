(** A cluster: N sites wired over the simulated network, plus the control
    surface experiments drive — transaction submission, failure and
    partition injection, and aggregate metrics. *)

open Rt_sim
open Rt_types

type t

val create : Config.t -> t
(** Builds the engine (seeded from the config), the network and the
    sites, and starts heartbeats. *)

val engine : t -> Engine.t

val config : t -> Config.t

val placement : t -> Rt_placement.Placement.t
(** The effective key→shard→replica placement (degenerate full
    replication when the config sets none). *)

val site : t -> Ids.site_id -> Site.t

val sites : t -> Site.t array

val counters : t -> Rt_metrics.Counter.t

val net : t -> Msg.t Rt_net.Net.t
(** The cluster's network, exposed for fault injection (link overrides,
    directional severs).  Handlers are owned by the sites — don't
    re-register them. *)

val net_stats : t -> Rt_net.Net.Stats.t

val submit :
  t ->
  site:Ids.site_id ->
  ops:Rt_workload.Mix.op list ->
  k:(Site.outcome -> unit) ->
  unit

val run : ?until:Time.t -> t -> unit
(** Drive the simulation.  Heartbeats re-arm themselves forever, so
    always pass [until]; an unbounded run only returns once the event
    queue drains, which never happens while any site is up. *)

val now : t -> Time.t

val crash_site : ?torn:int -> t -> Ids.site_id -> unit
(** [torn] is forwarded to {!Site.crash}: with [Config.storage_faults]
    on and a WAL device cycle in flight, exactly [torn] records of that
    cycle survive the crash as durable. *)

val recover_site : t -> Ids.site_id -> unit

val partition : t -> Ids.site_id list list -> unit
(** Install a network partition (groups as in {!Rt_net.Partition.split}). *)

val heal : t -> unit

val populate : t -> Rt_workload.Mix.t -> unit
(** Install the mix's initial keys directly into the stores and
    checkpoints, bypassing the transaction machinery (simulated initial
    state).  Each site keeps only the keys of shards it replicates. *)

val latencies : t -> Rt_metrics.Sample.t
(** Merged commit-latency samples (seconds) across every site. *)

val converged : t -> bool
(** Every up replica of each shard holds a byte-identical slice of that
    shard — the replica-consistency check used by integration tests.
    Under full replication this is the classical whole-store comparison
    across all up sites.  Quorum configurations legitimately diverge on
    stale copies, so this is meaningful for ROWA-style protocols (and
    for quorum after a write-all round). *)
