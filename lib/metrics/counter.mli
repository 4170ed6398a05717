(** Named integer counters grouped in a registry, for exact tallies
    (messages, log forces, aborts, ...). *)

type t

val create : unit -> t

val incr : t -> string -> unit

val get : t -> string -> int
(** 0 for a never-incremented counter. *)

val set : t -> string -> int -> unit

val names : t -> string list
(** Sorted counter names. *)

val to_assoc : t -> (string * int) list
(** Sorted by name. *)

val reset : t -> unit

val pp : Format.formatter -> t -> unit
