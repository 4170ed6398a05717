(** Deterministic crash-point sweep over the commit protocols.

    For each protocol × cluster size × placement configuration (full
    replication and a sharded placement), a discovery pass runs one
    distributed write transaction with the crash-point hook recording
    every announcement at the targeted sites: the coordinator (site 0)
    and a representative participant (site 1) — or, for Paxos Commit,
    the ballot-0 leader (site 0), a pure acceptor (site 1), and at
    n ≥ 4 a plain participant with no acceptor duties (site 3).  Each recorded occurrence then becomes an injection run:
    the same seeded workload, with the site crashed exactly at that
    occurrence of that point and recovered 100 ms later.  At a 3 s
    horizon every run is audited for agreement, durability, orphaned
    locks, undrained protocol timers, and bounded termination.

    Everything is driven by the DES seed, so the same seed yields a
    byte-identical {!render}ed report. *)

type case = {
  cs_protocol : string;
  cs_n : int;
  cs_placement : string;
      (** ["full"] or the sharded configuration's name. *)
  cs_site : int;  (** The crashed site. *)
  cs_role : string;
      (** ["coordinator"]/["participant"], or for Paxos Commit
          ["leader"]/["acceptor"]/["participant"]. *)
  cs_point : string;
  cs_occurrence : int;  (** 1-based occurrence of the point at the site. *)
  cs_torn : int option;
      (** [Some k]: tear the in-flight WAL device cycle at the crash so
          only [k] of its records survive as durable ([k < n] for a
          cycle of [n] records; [Config.storage_faults] must be on).
          [None]: classical atomic crash. *)
}

type violation = { v_case : case; v_invariant : string; v_detail : string }

type summary = {
  sm_protocol : string;
  sm_n : int;
  sm_placement : string;
  sm_points : int;  (** Distinct (site, point) pairs targeted. *)
  sm_cases : int;
  sm_violations : int;
}

type report = {
  rp_summaries : summary list;
  rp_violations : violation list;
  rp_cases : int;
}

val default_protocols : (string * Rt_core.Config.commit_protocol) list
(** 2PC-PrN, 2PC-PrA, 2PC-PrC, 3PC, QC (majority quorums), and Paxos
    Commit at F = 1 (so n = 5 keeps non-acceptor participants). *)

val default_ns : int list
(** Cluster sizes swept by default: 3 and 5. *)

val sweep :
  ?seed:int ->
  ?protocols:(string * Rt_core.Config.commit_protocol) list ->
  ?ns:int list ->
  unit ->
  report
(** Run the sweep (default: every protocol × every size, seed 0) under
    four configurations: full replication ("full"); at sizes ≥ 4, two
    range shards split at "b" with round-robin replica sets of
    [min 3 (n-1)] sites ("sharded": the coordinator replicates one
    shard, the targeted participant both, and for n=5 site 4 nothing);
    full replication with WAL group commit and link batching
    ("full+gc") — group commit moves the force boundaries, so the sweep
    re-discovers its crash points there; and "full+torn": the same
    windows with [storage_faults] armed and every torn
    variant of every observed force-durable cycle injected. *)

val discover :
  ?placement:Rt_placement.Placement.t ->
  ?tune:(Rt_core.Config.t -> Rt_core.Config.t) ->
  protocol:Rt_core.Config.commit_protocol ->
  n:int ->
  seed:int ->
  unit ->
  (int * string * int) list
(** The discovery pass alone: the ordered (site, point, cycle-size)
    stream at the targeted sites for an uninjected run.  The cycle size
    is the announcing site's WAL device-cycle record count at the
    announcement — the [n] torn variants are enumerated from at
    ["wal:force-durable"] points. *)

val render : report -> string
(** Markdown summary table followed by one line per violation;
    byte-stable for a given seed. *)
