(** Fault-campaign runner.

    Schedules {!Scenario} steps against a live cluster under a client
    fleet ({!Rt_core.Failure.schedule}), then heals every fault,
    recovers every site, measures the heal-to-quiet drain time, and runs
    the shared {!Rt_core.Audit} battery.  Fully simulation-deterministic: the same seed produces the
    same results, byte for byte. *)

open Rt_sim
open Rt_core

(** {2 The safety envelope}

    Declared per cell before it runs, from the commit protocol, the
    replica control and the fault plan alone.  A declared cell may
    produce the findings its arms name; the report prints them under a
    loud [!! OUTSIDE SAFETY ENVELOPE] block instead of counting them.
    Every other finding, in every cell, fails the campaign. *)

type excuse =
  | Split_decision
      (** The decision itself may split: agreement and durability
          findings (fork-freedom reports as agreement). *)
  | Divergent_copies
      (** Only {!Rt_core.Audit.divergence}, the finding of
          {!Rt_core.Audit.convergence}. *)

type envelope = (string * excuse) list
(** The declared arms covering a cell, each with its reason; [[]] is a
    strict cell. *)

val safety_envelope :
  protocol:Config.commit_protocol ->
  rc:Rt_replica.Replica_control.t ->
  steps:Scenario.step list ->
  envelope
(** Two arms.  Basic 3PC under steps that cut reachability
    ({!Scenario.cuts_reachability}): its termination rule trusts a
    failure detector that a cut can fool, so it may {!Split_decision}.
    A replica control that trusts its failure detector
    ({!Rt_replica.Replica_control.trusts_failure_detector}: available
    copies, primary copy) under steps that crash a site or cut
    reachability: {!Divergent_copies}.  ROWA and quorums, and every
    protocol but basic 3PC, stay strict otherwise. *)

val declared :
  envelope -> Audit.violation list -> Audit.violation list * Audit.violation list
(** [(set_aside, kept)]: the findings some arm of the envelope names,
    and the rest. *)

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
  r_envelope : envelope;
      (** The arms of {!safety_envelope} covering this cell, decided
          before the run; rendered as a shouted
          [!! OUTSIDE SAFETY ENVELOPE] block, never silently dropped. *)
  r_expected_divergence : Audit.violation list;
      (** The findings {!declared} set aside: excluded from
          {!total_violations} but printed loudly.  Always empty for a
          strict cell. *)
}

val run_one :
  ?seed:int ->
  ?sites:int ->
  ?clients:int ->
  ?duration:Time.t ->
  ?keys:int ->
  ?rc:Rt_replica.Replica_control.t ->
  ?tune:(Config.t -> Config.t) ->
  scenario:Scenario.t ->
  protocol:string * Config.commit_protocol ->
  placement:string * Rt_placement.Placement.t option ->
  unit ->
  result * Cluster.t
(** One cell: run [scenario] for [duration] against the given protocol,
    replica control (default ROWA) and placement over a [keys]-key
    keyspace (default 48), then heal, drain until hygiene-clean (5 s
    cap) and audit ({!Audit.standard} with a 1 s quiescence window).
    [tune] adjusts the built config before the cluster is created (e.g.
    enable WAL group commit or link batching).  The drained cluster is
    returned beside the result, for callers that report more of it. *)

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

val render_envelope : result -> string
(** The [!! OUTSIDE SAFETY ENVELOPE] block of a declared cell, one
    header line per arm and one line per finding set aside; [""] for a
    strict cell. *)

val render : result list -> string
(** Markdown table plus one line per violation.  Contains no wall-clock
    timing, so equal-seed runs render byte-identically. *)

val total_violations : result list -> int
