(** Cluster harness for the explorer: small-scope scenarios (N = 3, one
    or two transactions, all six commit protocols, full and two-shard
    placements, optional crash injection), the standard sweep matrix,
    and the byte-stable report [make explore] regenerates.  The matrix
    is strict: every invariant violation counts, with no
    expected-violation carve-outs.

    Every scenario is explored once, with sleep sets and state dedup.
    All randomness is neutralized: fixed link latency, no drops, a fixed
    seed, and a heartbeat interval far beyond the horizon. *)

type scenario = {
  sc_name : string;
  sc_protocol : Rt_core.Config.commit_protocol;
  sc_sharded : bool;
  sc_batched : bool;
      (** WAL group commit + link batching on: each flush window closes
          with the macro step that opened it, and the envelopes it sends
          are schedule choices. *)
  sc_txns : (int * Rt_workload.Mix.op list) list;  (** (origin, ops) *)
  sc_crash : bool;
      (** Site 0's ["wal:force-volatile"] and ["wal:force-durable"]
          announcements become crash decisions, at most one crash per
          schedule; recovery is a timer the explorer schedules. *)
  sc_max_executions : int;
}

val scenario :
  ?sharded:bool ->
  ?batched:bool ->
  ?crash:bool ->
  ?max_executions:int ->
  name:string ->
  protocol:Rt_core.Config.commit_protocol ->
  txns:(int * Rt_workload.Mix.op list) list ->
  unit ->
  scenario

val default_matrix : unit -> scenario list
(** Six scenarios per protocol: full, shard2, conflict, crash, plus the
    conflict and crash shapes again with WAL group commit and link
    batching on (conflict+gcb, crash+gcb). *)

val find_scenario : string -> scenario option

val make_sys : scenario -> unit -> Explore.sys
(** Build a fresh cluster harness for one execution of [scenario]; the
    t = 0 heartbeat burst is drained so exploration starts settled. *)

val opts_of : scenario -> sleep:bool -> Explore.opts
(** Explorer options for a scenario: state dedup on, one timeout
    injection per schedule (CHESS-style bounded), infrastructure timers
    held pending until the leaf drain. *)

val run_matrix : ?filter:(scenario -> bool) -> Format.formatter -> int
(** Run (a filtered subset of) the default matrix, render the report,
    and return the total number of violations. *)
