(** Wait-for graphs and cycle detection for deadlock handling.

    Nodes are transactions; an edge [a -> b] means [a] waits for a lock
    held (or requested ahead) by [b].  Detection is a depth-first search
    that returns the first cycle found; determinism comes from visiting
    nodes, and each node's successors, in transaction order. *)

open Rt_types

val find_cycle :
  (Ids.Txn_id.t * Ids.Txn_id.t) list -> Ids.Txn_id.t list option
(** Some cycle of the graph with these edges (each node waits for the
    next, last waits for first), or [None] if the graph is acyclic.
    Self-edges are ignored, and the result depends only on the set of
    edges, not on their order or repetition.  O((V + E) log V). *)

val victim : Ids.Txn_id.t list -> Ids.Txn_id.t
(** The transaction to abort from a non-empty cycle: the youngest (most
    recently started), which preserves the oldest transactions'
    progress. *)
