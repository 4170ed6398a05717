(** Strict two-phase-locking lock manager.

    Shared/exclusive locks per key with FIFO waiting, lock upgrades, and
    deadlock detection over the induced wait-for graph.  Grants are
    synchronous when possible ([Granted] return) and otherwise delivered
    through the request's callback when a release unblocks it — the caller
    (the transaction scheduler) decides how to resume the transaction.

    Invariants maintained:
    - a key's holders are either one exclusive owner or any number of
      shared owners;
    - a waiting request is granted only when compatible with all current
      holders and no older queued request would be starved;
    - an upgrade (S→X by the sole shared holder) jumps the queue, since it
      can never be granted behind another request that conflicts with its
      held lock. *)

open Rt_types

type mode = Shared | Exclusive

val pp_mode : Format.formatter -> mode -> unit

type t

val create : unit -> t

type outcome =
  | Granted  (** The lock is held on return. *)
  | Waiting  (** Queued; the callback fires when granted. *)

val acquire :
  t -> txn:Ids.Txn_id.t -> key:string -> mode:mode -> on_grant:(unit -> unit) ->
  outcome
(** Re-acquiring a mode already held (or acquiring [Shared] while holding
    [Exclusive]) returns [Granted] without changing state. *)

val release_all : t -> txn:Ids.Txn_id.t -> unit
(** Drop every lock held by [txn], remove its queued requests, and grant
    whatever became grantable (callbacks fire synchronously, in queue
    order). *)

val holds : t -> txn:Ids.Txn_id.t -> key:string -> mode option
(** Strongest mode held. *)

val holders : t -> key:string -> (Ids.Txn_id.t * mode) list

val waiters : t -> key:string -> (Ids.Txn_id.t * mode) list
(** In queue order. *)

val is_waiting : t -> txn:Ids.Txn_id.t -> bool

val held_keys : t -> txn:Ids.Txn_id.t -> string list
(** Sorted. *)

val blocking : t -> txn:Ids.Txn_id.t -> Ids.Txn_id.t list
(** Transactions [txn] currently waits behind, across every request it
    has queued: incompatible holders plus incompatible requests queued
    ahead.  Sorted, deduplicated.  Empty when not waiting.  The same
    waits-for rule gives the edges of {!detect_deadlock}. *)

val detect_deadlock : t -> Ids.Txn_id.t option
(** Search the wait-for graph of every queued request for a cycle
    ({!Wfg.find_cycle}); return its youngest transaction, if a deadlock
    exists.  The caller is responsible for aborting the victim (which
    must include [release_all]). *)

val resolve_deadlocks : t -> kill:(Ids.Txn_id.t -> unit) -> unit
(** Call [kill] on the victim of {!detect_deadlock} until no cycle
    remains.  Raises [Invalid_argument] if the victim still waits after
    [kill]: a kill that does not release its victim would loop. *)

val locked_keys : t -> int
(** Number of keys with at least one holder or waiter (table size). *)

val dump :
  t ->
  (string * (Ids.Txn_id.t * mode) list * (Ids.Txn_id.t * mode) list) list
(** Every live entry as [(key, holders, waiting)], sorted by key
    (diagnostics: names the transactions behind {!locked_keys}). *)
