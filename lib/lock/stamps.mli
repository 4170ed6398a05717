(** Per-key timestamp-ordering stamps: basic TO with deferred writes and
    the Thomas write rule.

    Timestamps are the transaction ids themselves (total order with site
    tie-break).  Each key carries the newest admitted reader, the newest
    installed writer, and the pending marks of admitted writers whose
    values are still buffered.  No check ever blocks: an operation is
    admitted or refused on the spot, and a refused check changes
    nothing.  The caller applies the values; this table only decides.

    Used by the local workbench ({!Rt_cc.Workbench}, scheme [Timestamp])
    and by every replica site running [Config.Timestamp]. *)

open Rt_types

type t

val create : unit -> t

val read : t -> txn:Ids.Txn_id.t -> key:string -> bool
(** Admit a read at timestamp [txn]: refused when a newer write was
    installed, or when an older writer is still pending — the value this
    read ought to see is not installed yet, and reading past it would
    break serializability under deferred writes.  Otherwise advances the
    key's read stamp. *)

val write : t -> txn:Ids.Txn_id.t -> key:string -> bool
(** Admit a buffered write: refused when a newer transaction already
    read the key or installed a write; otherwise marks [txn] pending on
    the key (idempotent). *)

val release : t -> txn:Ids.Txn_id.t -> unit
(** Drop every pending mark of [txn] (commit or abort); idempotent. *)

val install : t -> txn:Ids.Txn_id.t -> key:string -> bool
(** The Thomas write rule at commit: [false] when a newer write already
    installed (skip the obsolete value); otherwise [txn] becomes the
    key's write stamp and the caller applies the value. *)

val dump : t -> string
(** Canonical rendering of every key's stamps and pending marks, in
    sorted key order, for state fingerprints. *)
