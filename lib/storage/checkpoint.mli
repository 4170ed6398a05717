(** Checkpoints: durable snapshots of the store paired with the log position
    they capture.

    Taking a checkpoint lets the log be truncated up to the snapshot's LSN
    (minus any still-active transactions, which the caller must account
    for).  The snapshot is modelled as instantaneously durable; its cost
    shows up in experiments through the log-length/recovery-time trade-off
    rather than a write stall.

    Snapshots are kept per shard: the caller supplies the key→shard
    mapping and each shard's slice is stored separately, so a
    partially-replicated site checkpoints exactly the shards it holds.  Under full replication everything is shard 0 and
    the behaviour is the classical whole-store snapshot. *)

type t

val create : unit -> t

val take : ?shard_of:(string -> int) -> t -> kv:Kv.t -> lsn:Wal.lsn -> unit
(** Record a snapshot of [kv] as of log position [lsn], partitioned by
    [shard_of] (default: a single shard 0). *)

val latest : t -> ((string * Kv.item) list * Wal.lsn) option
(** Most recent snapshot (all shards merged, in shard order) and its LSN,
    if any. *)

type restored =
  | R_latest of Wal.lsn  (** Latest snapshot valid and restored. *)
  | R_previous of Wal.lsn
      (** Latest snapshot corrupt; previous restored instead. *)
  | R_none  (** No usable snapshot; store cleared, full log replay. *)

val restore_validated : t -> Kv.t -> restored
(** Load a snapshot into the store (clearing it first); recovery
    replays the log after the returned snapshot's LSN.  The latest
    snapshot's checksum is validated before restoring it; on failure
    fall back to the previous snapshot, and when that is also unusable
    (or no checkpoint exists) clear the store so recovery replays the
    full log. *)

val corrupt : t -> unit
(** Fault injection: break the latest snapshot's stored checksum (no-op
    when no snapshot exists).  {!restore_validated} will then fall
    back. *)

val has_previous : t -> bool
(** Whether a previous (pre-latest) snapshot is retained.  Fault
    injectors gate checkpoint corruption on this: the bootstrap
    checkpoint can hold preloaded data that is in no log record, so
    corrupting it would model unrecoverable (out-of-scope) loss. *)

val previous_lsn : t -> Wal.lsn option
(** LSN of the retained previous snapshot, if any.  When checkpoint
    corruption is armed, log truncation must not pass this point or the
    fallback snapshot would have no covering log suffix. *)

val count : t -> int
(** Checkpoints taken so far. *)

val dump : t -> string
(** Canonical rendering (take count, LSN, per-shard entries in shard and
    key order), for state fingerprints. *)
