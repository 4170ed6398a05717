(** Fault-campaign runner.

    Schedules {!Scenario} steps against a live cluster under a client
    fleet ({!Rt_core.Failure.schedule}), then heals every fault,
    recovers every site, measures the heal-to-quiet drain time, and runs
    the shared {!Rt_core.Audit} battery.  Fully simulation-deterministic: the same seed produces the
    same results, byte for byte. *)

open Rt_sim
open Rt_core

val outside_safety_envelope :
  protocol:Config.commit_protocol -> steps:Scenario.step list -> string option
(** Upfront safety-envelope verdict for one campaign cell, decided from
    the fault plan alone: [Some reason] iff the protocol's documented
    assumptions do not cover the scenario's faults.  The only cell
    outside any envelope today is basic 3PC under severed reachability —
    its termination rule trusts a failure detector that partitions can
    fool.  Everything else, Paxos Commit included, is strict: any audit
    violation fails the campaign. *)

val default_scenarios : Scenario.t list
(** Calm control plus lossy, gray, flapping, one-way, churn, and
    coordinator-targeted faults. *)

val default_placements :
  sites:int -> (string * Rt_placement.Placement.t option) list
(** Full replication, plus a 4-shard hash placement when [sites >= 4]. *)

type result = {
  r_scenario : string;
  r_protocol : string;
  r_placement : string;
  r_committed : int;
  r_aborted : int;
  r_retries : int;
  r_sent : int;
  r_dropped_link : int;
  r_dropped_partition : int;
  r_duplicated : int;
  r_torn : int;
      (** Torn WAL tails truncated by recovery's scan, summed over every
          site (cumulative across incarnations).  Always 0 with the
          storage fault profile off. *)
  r_cp_fallbacks : int;
      (** Recoveries that found the latest checkpoint snapshot corrupt
          and fell back to the previous snapshot or a full log replay. *)
  r_drain : Time.t option;
      (** Time from heal until every site is hygiene-clean; [None] when
          the cluster never drained within the cap (also reported as a
          termination violation). *)
  r_violations : Audit.violation list;
  r_envelope : string option;
      (** [Some reason] when this cell lies outside the protocol's
          declared safety envelope (see {!outside_safety_envelope});
          rendered as a shouted [!! OUTSIDE SAFETY ENVELOPE] block, never
          silently dropped. *)
  r_expected_divergence : Audit.violation list;
      (** Agreement/durability divergences observed while outside the
          envelope; excluded from {!total_violations} but printed loudly.
          Always empty when [r_envelope = None]. *)
}

val run_one :
  ?seed:int ->
  ?sites:int ->
  ?clients:int ->
  ?duration:Time.t ->
  ?rc:Rt_replica.Replica_control.t ->
  ?tune:(Config.t -> Config.t) ->
  scenario:Scenario.t ->
  protocol:string * Config.commit_protocol ->
  placement:string * Rt_placement.Placement.t option ->
  unit ->
  result
(** One cell: run [scenario] for [duration] against the given protocol,
    replica control (default ROWA) and placement, then drain and audit.
    [tune] adjusts the built config before the cluster is created (e.g.
    enable WAL group commit or link batching). *)

val run :
  ?seed:int ->
  ?sites:int ->
  ?clients:int ->
  ?duration:Time.t ->
  ?rc:Rt_replica.Replica_control.t ->
  ?tune:(Config.t -> Config.t) ->
  ?scenarios:Scenario.t list ->
  ?placements:(string * Rt_placement.Placement.t option) list ->
  unit ->
  result list
(** The full scenario × protocol × placement matrix over every protocol
    of {!Rt_commit.Commit_protocol.all}, every cell tuned by [tune]
    (default: no adjustment). *)

val pp_drain : Format.formatter -> Time.t option -> unit
(** ["stuck"] for [None], otherwise the drain time in milliseconds. *)

val violation_lines : result list -> string list
(** One [[scenario protocol placement] invariant: detail] line per
    violation, in result order: the violation list of both nemesis
    reports. *)

val render : result list -> string
(** Markdown table plus one line per violation.  Contains no wall-clock
    timing, so equal-seed runs render byte-identically. *)

val total_violations : result list -> int
