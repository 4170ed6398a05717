(** Execution histories and the conflict-serializability check.

    Schedulers record the versions their committed transactions read and
    wrote; the checker builds the version-order conflict graph (wr, ww,
    rw edges) over committed transactions and tests it for cycles.  An
    acyclic graph certifies conflict-serializability — the correctness
    oracle for every scheme's property tests. *)

open Rt_types

type t

val create : unit -> t

val read : t -> Ids.Txn_id.t -> key:string -> version:int -> unit
(** Record that the transaction read the given committed version
    (version 0 = the initial value). *)

val write : t -> Ids.Txn_id.t -> key:string -> version:int -> unit
(** Record that the transaction's commit installed this version. *)

val commit : t -> Ids.Txn_id.t -> unit

val abort : t -> Ids.Txn_id.t -> unit

val committed : t -> Ids.Txn_id.t list

val serializable : t -> bool

val cycle : t -> Ids.Txn_id.t list option
(** A witness cycle when not serializable. *)
