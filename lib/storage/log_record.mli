(** Log records written by the transaction and commitment machinery.

    The [Update] record carries redo information (new value/version):
    updates reach stable state only after commit, so recovery never
    undoes.  Commit-protocol records ([Prepared], [Precommit], decision
    records) are what the termination protocols consult after a crash. *)

open Rt_types

type t =
  | Update of {
      txn : Ids.Txn_id.t;
      key : string;
      value : string;
      version : Kv.version;
    }
  | Prepared of { txn : Ids.Txn_id.t; participants : Ids.site_id list }
      (** Participant is ready to commit (2PC/3PC vote Yes).  The member
          list lets a recovering site rebuild its termination machinery. *)
  | Precommit of Ids.Txn_id.t  (** 3PC / quorum-commit pre-commit state. *)
  | Preabort of Ids.Txn_id.t  (** Quorum-commit pre-abort state. *)
  | Collecting of Ids.Txn_id.t
      (** Presumed-commit coordinator's begin record. *)
  | Commit of Ids.Txn_id.t
  | Abort of Ids.Txn_id.t
  | End of Ids.Txn_id.t
      (** Transaction fully resolved locally; allows log truncation. *)

val pp : Format.formatter -> t -> unit
