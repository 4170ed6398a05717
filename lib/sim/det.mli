(** Deterministic traversal of hash tables.

    Hashtbl visits buckets in layout order, which depends on insertion
    history — not a stable order anything downstream may rely on.  Every
    traversal whose effects or results are order-sensitive must go
    through these helpers (or sort its own result); the
    [deterministic-iteration] lint enforces this. *)

val sorted_bindings : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings, sorted by key with [cmp]. *)

val iter_sorted :
  cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted ~cmp f tbl] applies [f] to each binding in ascending
    key order. *)

val fold_sorted :
  cmp:('k -> 'k -> int) ->
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
