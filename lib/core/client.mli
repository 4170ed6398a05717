(** Closed-loop clients: each repeatedly generates a transaction, submits
    it to its home site, optionally retries aborts after a randomized
    backoff, thinks, and goes again.  The classical multiprogramming-level
    knob is simply the number of clients started. *)

open Rt_sim
open Rt_types

type t

type stats = {
  mutable committed : int;
  mutable aborted : int;
  mutable retries : int;
}

val create :
  cluster:Cluster.t ->
  site:Ids.site_id ->
  mix:Rt_workload.Mix.t ->
  ?think:Time.t ->
  ?retry_aborts:bool ->
  ?ordered_keys:bool ->
  ?route_by_shard:bool ->
  unit ->
  t
(** [think] (default 0) is the delay between a completion and the next
    submission.  [retry_aborts] (default true) resubmits the same
    operations as a fresh transaction after a randomized backoff.
    [ordered_keys] (default true) sorts each transaction's keys — the
    deadlock-avoidance discipline; turn it off to measure deadlocks.
    [route_by_shard] (default false) coordinates each transaction at a
    replica of its first key's shard instead of the fixed home site, so
    single-shard transactions under a sharded placement avoid remote
    data rounds.  The client draws from its own RNG, split from the
    engine's.  Retry backoff doubles from 400µs to a 25ms cap. *)

val start : t -> unit

val stop : t -> unit

val stats : t -> stats

val start_fleet :
  cluster:Cluster.t ->
  clients:int ->
  mix:Rt_workload.Mix.t ->
  ?think:Time.t ->
  ?retry_aborts:bool ->
  ?ordered_keys:bool ->
  ?route_by_shard:bool ->
  unit ->
  t list
(** [clients] closed-loop clients spread round-robin over the sites, each
    with an independent RNG split from the engine's. *)

val total : t list -> stats
