(** Closed-loop driver for comparing local concurrency-control schemes.

    Runs M logical clients against one store under a given scheme on the
    simulation engine; each operation costs a small CPU delay so clients
    genuinely interleave.  Reports throughput and abort behaviour, and can
    record a history for the serializability oracle. *)

open Rt_sim

type result = {
  scheme : string;
  committed : int;
  aborted : int;
  deadlock_aborts : int;
  order_aborts : int;
  validation_aborts : int;
  duration : Time.t;
  throughput : float;  (** Committed transactions per simulated second. *)
  abort_rate : float;  (** Aborts / (commits + aborts). *)
  serializable : bool option;  (** When history checking was requested. *)
}

type scheme =
  | Two_pl  (** Strict 2PL, deadlock detection. *)
  | Two_pl_wound_wait
  | Two_pl_wait_die
  | Timestamp
  | Optimistic

val scheme_name : scheme -> string

val all_schemes : scheme list
(** The three families: detection-based 2PL, TO, OCC. *)

val all_2pl_policies : scheme list
(** Detection, wound-wait, wait-die — the deadlock-handling ablation. *)

val run :
  ?seed:int ->
  ?check_history:bool ->
  ?ordered:bool ->
  scheme:scheme ->
  clients:int ->
  mix:Rt_workload.Mix.t ->
  duration:Time.t ->
  unit ->
  result
(** Aborted transactions are retried (fresh timestamp) after a small
    backoff, as a restart-oriented scheduler would.  [ordered] (default
    true) sorts each transaction's keys — the deadlock-avoidance
    discipline; pass false to let opposite-order conflicts (and hence
    deadlocks) occur. *)
