(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation.  Using integers keeps the event queue total order exact and
    runs byte-identical across platforms. *)

type t = int

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val of_float_s : float -> t
(** [of_float_s s] converts [s] seconds to a time, rounding to nanoseconds. *)

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] is [a - b]. *)

val compare : t -> t -> int

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val min : t -> t -> t

val max : t -> t -> t

val to_float_s : t -> float
(** Time in seconds, for reporting. *)

val to_float_ms : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/µs/ms/s). *)
