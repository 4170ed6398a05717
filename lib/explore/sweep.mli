(** Cluster harness for the explorer: small-scope scenarios (N = 3, one
    or two transactions, all six commit protocols, full and two-shard
    placements, optional crash injection), the standard sweep matrix,
    and the byte-stable report [make explore] regenerates.  The matrix
    is strict: every invariant violation counts, with no
    expected-violation carve-outs.

    Every scenario runs twice — sleep sets on and off, both with state
    dedup — so the reported reduction factor isolates the partial-order
    reduction.  All randomness is neutralized: fixed link latency, no
    drops, a fixed seed, and a heartbeat interval far beyond the
    horizon. *)

type crash_spec = {
  cr_sites : int list;  (** Sites whose crash points become decisions. *)
  cr_points : string list;  (** Empty = every announced point. *)
  cr_budget : int;  (** Max crash injections per schedule. *)
}

type scenario = {
  sc_name : string;
  sc_protocol : Rt_core.Config.commit_protocol;
  sc_sharded : bool;
  sc_batched : bool;
      (** WAL group commit + link batching on: flush-window timers and
          envelope deliveries become schedule choices. *)
  sc_txns : (int * Rt_workload.Mix.op list) list;  (** (origin, ops) *)
  sc_crash : crash_spec option;
  sc_max_executions : int;
}

val scenario :
  ?sharded:bool ->
  ?batched:bool ->
  ?crash:crash_spec ->
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
    injection per schedule (CHESS-style bounded), infra timers held
    pending until the leaf drain, wal-device completions eager. *)

type row = {
  rw_scenario : scenario;
  rw_sleep : Explore.result;
  rw_nosleep : Explore.result;
  rw_counterexamples : (int list * string list * (string * string) list) list;
      (** Minimized schedule, trace, violations. *)
  rw_violations : int;
      (** Every violation found; no expected-violation filter exists. *)
}

val run_scenario : scenario -> row
(** Explore with and without sleep sets, minimize up to three violating
    leaves, and count every violation. *)

val reduction_factor : row -> float * bool
(** Executions(no-sleep) / executions(sleep); the flag is [true] when the
    no-sleep run hit its execution budget (factor is a lower bound). *)

val render_report : Format.formatter -> row list -> int
(** Write the markdown report; returns the total violation count. *)

val run_matrix :
  ?filter:(scenario -> bool) -> ?budget:int -> Format.formatter -> int
(** Run (a filtered subset of) the default matrix, optionally clamping
    per-scenario execution budgets, render the report, and return the
    total number of violations. *)
