(** Exact sample set: stores every observation, gives exact quantiles.

    Suitable for simulation runs (up to a few million samples). *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val is_empty : t -> bool

val mean : t -> float
(** 0 when empty. *)

val stddev : t -> float
(** Population standard deviation; 0 when fewer than two samples. *)

val min : t -> float

val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 100], nearest-rank on the sorted
    samples.  Raises [Invalid_argument] when empty or [p] out of range. *)

val total : t -> float

val merge : t -> t -> t
(** Fresh sample set containing all observations of both. *)

val clear : t -> unit
