(** Crash recovery: rebuild the volatile store from a checkpoint snapshot
    plus the durable log suffix.

    This is the classical two-pass restart for a no-steal/no-force volatile
    cache: the snapshot is the last materialised state; an analysis pass
    classifies transactions from the log; a redo pass re-applies the updates
    of committed ("winner") transactions in log order.  Loser updates were
    never applied to stable state, so no undo pass is needed — but
    transactions that had logged [Prepared] without a decision are returned
    as in-doubt and must be resolved by the commitment protocol's
    termination/recovery procedure before their locks can be released. *)

open Rt_types

(** How far an in-doubt transaction had progressed. *)
type doubt_state = D_prepared | D_precommitted | D_preaborted

type in_doubt = {
  txn : Ids.Txn_id.t;
  state : doubt_state;
  participants : Ids.site_id list;  (** From the [Prepared] record. *)
  writes : (string * string * Kv.version) list;
      (** The updates this transaction would install on commit. *)
}

type outcome = {
  committed : Ids.Txn_id.t list;  (** Winners found in the log. *)
  aborted : Ids.Txn_id.t list;
  in_doubt : in_doubt list;
      (** Prepared (or pre-committed/pre-aborted) with no decision. *)
  collecting : Ids.Txn_id.t list;
      (** Coordinator-side presumed-commit begin records without a
          decision: these transactions must be answered "abort". *)
  redone : int;  (** Update records re-applied. *)
  scanned : int;  (** Total records scanned. *)
}

val recover : Kv.t -> Log_record.t list -> outcome
(** [recover kv log] applies winner updates from [log] to [kv] (which
    should already hold the checkpoint snapshot) and classifies every
    transaction seen.  Idempotent: re-running on the same input yields the
    same state, because updates carry absolute values and versions. *)

val replay_duration : scanned:int -> redone:int -> Rt_sim.Time.t
(** Simulated wall time for a restart that scans [scanned] records and
    re-applies [redone]: redo costs 5µs per record, scanning a tenth of
    that.  Used by the recovery-time experiment (T5). *)
