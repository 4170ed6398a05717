(** Local concurrency control, and a closed-loop workload that compares
    the schemes.

    Every scheme runs over one transaction core: writes are buffered
    per transaction and installed at commit in sorted key order, so
    every scheme presents the same recoverable, strict behaviour, and a
    transaction reads its own buffered writes.  The schemes differ only
    in how they admit an operation and what they check at commit:

    - strict 2PL over {!Rt_lock.Lock_table}: reads take shared locks,
      writes exclusive ones, all held to commit, with cycle detection
      (the youngest of a cycle aborts), wound-wait or wait-die;
    - basic timestamp ordering over {!Rt_lock.Stamps}, the rules a
      replica site runs under [Config.Timestamp]: a read aborts if a
      newer write installed or an older writer is pending, a write if a
      newer transaction read or wrote the key, and no operation blocks;
      at commit the Thomas write rule skips a superseded write;
    - optimistic concurrency control with backward validation: the
      version of every key read or overwritten is recorded, and commit
      aborts if any has changed since. *)

open Rt_sim
open Rt_types

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

(** {1 One store under one scheme}

    Requests are continuation-passing.  A request that can be answered
    at once is answered synchronously; a blocked 2PL request is answered
    when its lock is granted.  [`Abort] means the transaction lost a
    conflict and is already aborted and forgotten: the caller restarts
    it under a fresh id. *)

type t

(** Commits, and aborts by reason. *)
type stats = {
  mutable committed : int;
  mutable aborted : int;
  mutable deadlock_aborts : int;
      (** Cycle victims, wounded and dying transactions. *)
  mutable order_aborts : int;  (** Timestamp-order violations. *)
  mutable validation_aborts : int;  (** OCC validation failures. *)
}

val create : ?history:History.t -> scheme:scheme -> Rt_storage.Kv.t -> t
(** Committed transactions' reads and writes go to [history]. *)

val begin_txn : t -> Ids.Txn_id.t -> unit

val read :
  t ->
  txn:Ids.Txn_id.t ->
  key:string ->
  k:([ `Value of string option | `Abort ] -> unit) ->
  unit

val write :
  t ->
  txn:Ids.Txn_id.t ->
  key:string ->
  value:string ->
  k:([ `Ok | `Abort ] -> unit) ->
  unit

val commit :
  t -> txn:Ids.Txn_id.t -> k:([ `Committed | `Aborted ] -> unit) -> unit
(** OCC validates first.  Buffered writes then install in sorted key
    order, each at its key's next version, and locks are released last
    (a released lock's grants fire before [k]). *)

val stats : t -> stats

(** {1 Closed-loop comparison}

    Runs M logical clients against one store under a given scheme on the
    simulation engine; each operation costs a small CPU delay so clients
    genuinely interleave.  Reports throughput and abort behaviour, and can
    record a history for the serializability oracle. *)

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
