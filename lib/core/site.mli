(** A replica site: the composition the paper's system runs at every node.

    Each site owns a versioned store, a write-ahead log on simulated
    stable storage, concurrency-control state chosen by
    [Config.concurrency] (a strict-2PL lock table, or timestamp-ordering
    stamps with the Thomas write rule), a heartbeat failure detector,
    and — per transaction — commitment-protocol state machines (as both
    coordinator for locally submitted transactions and participant for
    everyone's).  The site interprets the pure machines' actions: it ships
    their messages, performs their forced log writes, runs their timers,
    and applies their decisions to the store.

    Crash/recovery follows the storage discipline: a crash discards the
    store, the lock table, the stamps, and every in-memory machine;
    recovery restores the last checkpoint, replays the durable log
    (taking simulated time proportional to its length), rebuilds
    termination machines for in-doubt transactions, and — for
    replica-control protocols that need it — refuses reads until a
    catch-up transfer from a live peer completes. *)

open Rt_sim
open Rt_types

type abort_reason =
  | Unavailable  (** No read/write plan under the current up-set. *)
  | Lock_conflict  (** A participant refused: lock timeout. *)
  | Deadlock  (** Chosen as a local deadlock victim. *)
  | Order_conflict
      (** Timestamp-ordering rejection; restart acquires a newer stamp. *)
  | Op_timeout  (** A read/write round never completed. *)
  | Protocol_abort  (** The commit protocol decided abort. *)
  | Site_down  (** Submitted to a crashed site. *)

val abort_reason_label : abort_reason -> string

type outcome = Committed | Aborted of abort_reason

type t

val create :
  engine:Engine.t ->
  id:Ids.site_id ->
  config:Config.t ->
  send:(dst:Ids.site_id -> Msg.t -> unit) ->
  counters:Rt_metrics.Counter.t ->
  t
(** [send] is wired to the simulated network by the cluster; the site
    never sends to itself through it. *)

val id : t -> Ids.site_id

val start : t -> unit
(** Begin heartbeating.  Call once after every site is registered. *)

val receive : t -> src:Ids.site_id -> Msg.t -> unit
(** Network delivery entry point. *)

val submit :
  t -> ops:Rt_workload.Mix.op list -> k:(outcome -> unit) -> unit
(** Run a transaction with this site as coordinator.  [k] fires exactly
    once, when the outcome is known at the coordinator. *)

(** {1 Interactive transactions}

    The batch [submit] executes a fixed operation list; interactive
    transactions let application code compute later operations from
    earlier reads (read-modify-write), which is what real clients need
    for e.g. balance transfers.  The handle is single-threaded: issue one
    operation at a time and wait for its continuation. *)

type txn

val begin_txn : t -> txn option
(** [None] when the site is down or catching up. *)

val txn_read :
  t -> txn -> key:string ->
  k:((string option, abort_reason) Result.t -> unit) -> unit
(** [Ok None] means the key does not exist.  [Error r]: the transaction
    has been aborted (resources already released); stop using the
    handle. *)

val txn_write :
  t -> txn -> key:string -> value:string ->
  k:((unit, abort_reason) Result.t -> unit) -> unit

val txn_commit : t -> txn -> k:(outcome -> unit) -> unit
(** Run the configured atomic-commitment protocol over every site the
    transaction touched. *)

val txn_abort : t -> txn -> unit
(** Voluntary abort; idempotent, and a no-op after commit. *)

val is_up : t -> bool

val serving : t -> bool
(** Up and not in the post-recovery catch-up window. *)

val crash : ?torn:int -> t -> unit
(** Power off: volatile state (store, locks, machines, timers) is lost;
    only the durable log prefix and checkpoints survive.

    [torn] (honoured only when [Config.storage_faults] is on and a WAL
    device cycle is in flight) tears the cycle: exactly [torn] of its
    records survive as durable, the rest remain on disk as garbage for
    the recovery scan to find. *)

val crash_recovering : ?torn:int -> t -> unit
(** Crash a site that is still inside its recovery replay window: the
    pending up-transition is cancelled and the partially-replayed store
    discarded, so the next {!recover} starts from scratch (recovery is
    idempotent).  On an up site this is an ordinary {!crash}. *)

val recover : t -> unit
(** Restart a crashed site.  The WAL is integrity-scanned first (torn
    tails truncated, sub-horizon corruption counted loudly), the latest
    valid checkpoint is installed ({!Rt_storage.Checkpoint.restore_validated}),
    and the durable log is replayed.  Replay takes simulated time;
    termination for in-doubt transactions and any catch-up transfer
    start afterwards. *)

val corrupt_checkpoint : t -> unit
(** Deterministic fault injection: corrupt the latest checkpoint so the
    next recovery must fall back.  No-op when only the bootstrap
    checkpoint exists (its preloaded data is in no log record, so the
    loss would be unrecoverable by design). *)

val corrupt_wal_record : t -> lsn:Rt_storage.Wal.lsn -> unit
(** Deterministic fault injection: break the stored checksum of one
    retained log record.  If the record lies below the durable horizon,
    the next recovery scan truncates there and reports the loss via
    {!corruption_detected}. *)

val kv : t -> Rt_storage.Kv.t
(** The live store (test/verification access). *)

val preload : t -> entries:(string * string) list -> unit
(** Install initial data (version 1) directly into the store and record
    it as a checkpoint so it survives crashes — the simulated equivalent
    of a database that existed before the experiment. *)

val wal_forces : t -> int
(** Completed (crash-consistent) WAL device cycles. *)

val wal_stats : t -> Rt_storage.Wal.stats
(** Full device-cycle accounting; the sweep audit asserts its
    crash-consistency invariant. *)

val wal_last_cycle_size : t -> int
(** Records covered by the WAL's current (or most recent) device cycle;
    the [n] a torn-write sweep enumerates crash-after-[k] points from. *)

val torn_truncated : t -> int
(** Torn-tail records recovery scans have dropped (clean truncation). *)

val corruption_detected : t -> int
(** Durable log records recovery scans found corrupt and refused to
    replay.  Data loss: the audit reports any non-zero value as a
    storage violation. *)

val checkpoint_fallbacks : t -> int
(** Recoveries that could not install the latest checkpoint (fell back
    to the previous snapshot or full log replay). *)

val log_length : t -> int

val active_participants : t -> int

val blocked_participants : t -> int
(** Participants currently reporting themselves blocked (2PC uncertainty
    window with a dead coordinator, or quorum-commit minority). *)

val decided_txns : t -> (Ids.Txn_id.t * Rt_commit.Protocol.decision) list
(** Transactions this site genuinely decided (delivered locally or settled
    from the durable log on recovery), in transaction-id order.  Excludes
    the abort pledges made for transactions the site never took part in,
    so cross-site comparison of these lists is exactly the agreement
    invariant. *)

val held_locks : t -> int
(** Keys with at least one lock holder or waiter (orphaned-lock audit). *)

val lock_debug : t -> string list
(** One line per locked key with its holders and waiters (diagnostics). *)

val pending_protocol_timers : t -> int
(** Commit-protocol timers currently scheduled across all live coordinator
    and participant contexts (undrained-timer audit). *)

val latencies : t -> Rt_metrics.Sample.t
(** Commit latencies (seconds) of transactions coordinated here. *)

val dump : t -> string
(** Canonical rendering of the complete behavioural state of the site —
    store, log, checkpoints, locks, timestamp-ordering stamps, every
    live commitment context including the full machine state, decision
    tables, and the failure-detector view — with every hash table in
    sorted order, so dumps are insertion-history-independent.  Two sites
    with equal dumps react identically to every future input. *)
