(** Basic timestamp ordering with deferred writes and the Thomas write
    rule at commit, over {!Rt_lock.Stamps} — the same per-key rules a
    replica site runs under [Config.Timestamp].

    A read at timestamp [ts] aborts if a newer write already installed
    or an older writer is still pending; a write aborts if a
    later-stamped transaction already read or wrote the key; otherwise
    operations never block.  Buffered writes install at commit unless an
    even newer write landed first.

    Satisfies {!Scheduler.S}. *)

open Rt_types
open Rt_storage

type t

val name : string

val create : ?history:History.t -> Rt_sim.Engine.t -> Kv.t -> t

val begin_txn : t -> Ids.Txn_id.t -> unit

val read :
  t ->
  txn:Ids.Txn_id.t ->
  key:string ->
  k:(Scheduler.read_result -> unit) ->
  unit

val write :
  t ->
  txn:Ids.Txn_id.t ->
  key:string ->
  value:string ->
  k:(Scheduler.write_result -> unit) ->
  unit

val commit :
  t -> txn:Ids.Txn_id.t -> k:(Scheduler.commit_result -> unit) -> unit
(** Installs surviving buffered writes in sorted key order. *)

val abort : t -> txn:Ids.Txn_id.t -> unit
(** Voluntary abort; idempotent. *)

val stats : t -> Scheduler.stats
