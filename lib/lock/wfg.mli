(** Wait-for graphs and cycle detection for deadlock handling.

    Nodes are transactions; an edge [a -> b] means [a] waits for a lock
    held (or requested ahead) by [b].  Detection is a depth-first search
    that returns the first cycle found; determinism comes from visiting
    nodes in transaction order. *)

open Rt_types

type t

val create : unit -> t

val add_edge : t -> Ids.Txn_id.t -> Ids.Txn_id.t -> unit
(** Self-edges are ignored. *)

val of_edges : (Ids.Txn_id.t * Ids.Txn_id.t) list -> t

val edges : t -> (Ids.Txn_id.t * Ids.Txn_id.t) list
(** Sorted, deduplicated. *)

val dump : t -> string
(** Canonical rendering of the edge set (sorted), for state
    fingerprints. *)

val find_cycle : t -> Ids.Txn_id.t list option
(** Some cycle (each node waits for the next, last waits for first), or
    [None] if the graph is acyclic. *)

val victim : Ids.Txn_id.t list -> Ids.Txn_id.t
(** The transaction to abort from a non-empty cycle: the youngest (most
    recently started), which preserves the oldest transactions'
    progress. *)
