(** Wire messages exchanged between sites.

    Every message is either transaction-scoped (execution or commitment
    traffic, tagged with the transaction id) or site-scoped (heartbeats
    and recovery catch-up). *)

open Rt_types

type refusal =
  | R_lock_timeout
  | R_deadlock
  | R_order  (** Timestamp-ordering conflict: restart with a newer stamp. *)
  | R_doomed
  | R_down

val pp_refusal : Format.formatter -> refusal -> unit

type payload =
  | Read_req of { key : string }
  | Read_reply of {
      key : string;
      result : (string option * int, refusal) Result.t;
          (** Value (None = key absent) and copy version, or a refusal. *)
    }
  | Write_req of { key : string; value : string }
  | Write_reply of { key : string; result : (int, refusal) Result.t }
      (** Current copy version before the write, or a refusal. *)
  | Abort_txn
      (** Coordinator aborts a transaction before any commit protocol
          started: drop buffers, release locks. *)
  | Commit_msg of {
      pmsg : Rt_commit.Protocol.msg;
      prepare : prepare_info option;
          (** Piggybacked on [Vote_req]: what this participant must make
              durable before voting, and who the participants are.  On
              [Decision_req] only [participants] is filled in: the
              asker's participant set, from which an origin with no
              memory of the transaction resolves its protocol's
              presumption. *)
    }
  | Probe of { initiator : Ids.Txn_id.t }
      (** Chandy–Misra–Haas edge-chasing probe.  The envelope transaction
          is the probed one: at its coordinator the probe is routed to the
          sites it waits on; at a participant it fans out to the probed
          transaction's local blockers.  A probe whose envelope equals its
          initiator has gone round a cycle: the initiator aborts. *)
  | Heartbeat
  | Catchup_req of { keys : (string * int) list }
      (** Recovering site's (key, version) inventory. *)
  | Catchup_reply of {
      entries : (string * string * int) list;
          (** Entries strictly newer than the requester's inventory. *)
      complete : bool;
          (** False when the replier is itself still validating: its
              entries are safe to merge but may not cover everything. *)
    }

and prepare_info = {
  writes : (string * string * int) list;
      (** (key, value, version) assignments for this site. *)
  participants : Ids.site_id list;
      (** Full participant set, for termination after a crash. *)
  presumed_down : Ids.site_id list;
      (** Copies the coordinator skipped believing them failed.  The
          available-copies validation protocol: a participant that knows
          one of these to be alive votes No, so a coordinator with a
          stale failure view cannot commit a write that misses live
          copies. *)
}

type t = { txn : Ids.Txn_id.t option; payload : payload }

val txn_msg : Ids.Txn_id.t -> payload -> t

val site_msg : payload -> t

val pp : Format.formatter -> t -> unit
