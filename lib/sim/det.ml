(* Deterministic traversal of hash tables.

   Stdlib Hashtbl iteration order is bucket order — a function of
   insertion history and table size, not of the keys — so any output,
   log, or callback sequence built from Hashtbl.iter/fold is only
   accidentally reproducible.  These helpers pay one sort per traversal
   to make the order a function of the keys alone, which is what replay
   determinism (and rt_lint's deterministic-iteration rule) requires. *)

let sorted_bindings ~cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let iter_sorted ~cmp f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_bindings ~cmp tbl)

let fold_sorted ~cmp f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings ~cmp tbl)
