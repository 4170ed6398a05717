(** Bounded exhaustive schedule exploration with partial-order reduction.

    The engine's state lives in mutable closures and cannot be
    snapshotted, so exploration is replay-based: each execution rebuilds
    the system from scratch ([make_sys]) and follows a recorded decision
    trail; backtracking truncates the trail at the deepest decision with
    an unexplored alternative and re-runs.  Decisions are (a) which
    pending event to fire next — message delivery or timer expiry, by
    engine label — and (b) crash/continue at crash-point announcements.
    Label [Internal] events (and deliveries the harness classifies as
    eager) are drained deterministically between decisions, forming
    atomic macro steps.

    Exploration prunes with canonical-state dedup (digests from the
    harness) and sleep sets over site-scope independence; see the
    implementation header for the soundness argument.  Schedules are
    plain [int list]s of chosen alternative indices and replay
    deterministically with {!follow}. *)

open Rt_sim

(** How the harness wants a pending delivery treated: [Eager] deliveries
    (e.g. heartbeats) are drained like internal events; [Choice d] makes
    the delivery an explorable decision, with [d] (a canonical payload
    rendering) folded into its identity key. *)
type delivery_class = Eager | Choice of string

(** The system under exploration, rebuilt fresh for every execution. *)
type sys = {
  ys_engine : Engine.t;
  ys_start : unit -> unit;
      (** Kick off the workload.  Runs after the explorer installs its
          crash hook, so crash points announced during submission are
          explorable decisions. *)
  ys_digest : unit -> string;
      (** Canonical fingerprint of the complete mutable state.  Must not
          depend on clocks, engine sequence numbers, or hash-table
          iteration order. *)
  ys_delivery_class : seq:int -> delivery_class;
  ys_crash_ok : site:int -> point:string -> bool;
      (** Whether a crash-point announcement is an explorable decision. *)
  ys_crash : site:int -> unit;
      (** Crash the site now and arrange its recovery (typically a
          labelled timer event, which exploration schedules freely). *)
  ys_drain : unit -> unit;
      (** Run the residue (budget-excluded timers, recovery) to
          quiescence in timestamp order before auditing. *)
  ys_audit : unit -> (string * string) list;
      (** Invariant check at a drained leaf: [(invariant, detail)]
          pairs, empty when clean. *)
}

type opts = {
  op_sleep : bool;  (** Sleep-set partial-order reduction. *)
  op_dedup : bool;  (** Canonical-state dedup cache. *)
  op_timer_total : int;
      (** Max explorable timer fires per path across all timers —
          bounded timeout injection in the CHESS preemption-bounding
          style: most timeout-interaction bugs need few untimely fires,
          and the bound keeps the space finite and small. *)
  op_timer_class : site:int -> name:string -> [ `Choice | `Pending | `Eager ];
      (** How a pending timer is scheduled.  [`Choice] timers are
          explorable decisions (timeouts racing deliveries).  [`Pending]
          timers stay pending until the leaf drain fires them in
          timestamp order — a scope bound for timeouts whose
          interleavings are out of the question being asked.  [`Eager]
          timers fire promptly inside the enclosing macro step (device
          completions whose only observable effect is message timing,
          which is explored directly). *)
  op_crash_budget : int;  (** Max crash injections per path. *)
  op_max_executions : int;  (** Execution budget; exceeding it marks the
                                result incomplete. *)
}

val default_opts : opts
(** Sleep and dedup on, all timers [`Choice], no crashes, 200k
    executions.  Fixed for every exploration: each (site, timer name)
    fires at most once per path as an explorable decision, and a path
    is cut at 300 decisions. *)

type stats = {
  mutable st_executions : int;
  mutable st_transitions : int;  (** Explicit choices fired. *)
  mutable st_states : int;  (** Distinct canonical states seen. *)
  mutable st_dedup_hits : int;
  mutable st_sleep_prunes : int;  (** Leaves cut because every eligible
                                      transition was asleep. *)
  mutable st_leaves : int;  (** Distinct quiescent leaves audited. *)
  mutable st_max_depth : int;
  mutable st_truncated : int;  (** Paths cut by the depth bound. *)
}

type leaf_report = {
  lf_schedule : int list;  (** Decision trail reaching the violation. *)
  lf_violations : (string * string) list;
}

type result = {
  r_stats : stats;
  r_complete : bool;
      (** Whole bounded space covered (no budget/depth truncation). *)
  r_violating : leaf_report list;
}

exception Divergence of string
(** A replayed trail stopped matching the execution — determinism was
    violated somewhere.  Always a bug; never expected in normal runs. *)

val explore : ?opts:opts -> (unit -> sys) -> result

type replay_out = {
  rp_trace : string list;  (** One line per decision taken. *)
  rp_violations : (string * string) list;
  rp_leaf : string;  (** ["quiescent"] or ["truncated"]. *)
  rp_state : string;
      (** The harness's raw digest text at the drained leaf — site dumps
          plus in-flight messages, for counterexample inspection. *)
}

val follow : ?opts:opts -> (unit -> sys) -> int list -> replay_out
(** Deterministically re-execute a schedule: the given indices first,
    then always alternative 0, with sleep/dedup off — the replay
    semantics counterexamples are exchanged in.  Drains and audits the
    reached leaf. *)

val minimize : ?opts:opts -> (unit -> sys) -> int list -> int list
(** Greedy counterexample shrinking under {!follow} semantics: shortest
    violating prefix, then lower each index.  Each probe is one full
    re-execution; capped at 300 probes. *)
