(** Imperative binary min-heap, used as the simulator's event queue. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val remove_first : 'a t -> ('a -> bool) -> 'a option
(** Removes and returns the first element, in storage order, that
    satisfies the predicate: a linear search, then an O(log n) repair. *)

val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
(** Folds over every element in storage order (not sorted).  Only suited
    to order-insensitive accumulation such as counting. *)

