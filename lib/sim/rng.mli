(** Deterministic pseudo-random numbers (SplitMix64).

    Every source of randomness in the simulator flows from a single seed
    through this module, so a run is fully reproducible.  Streams can be
    [split] so that independent components (network links, clients, failure
    injectors) draw from statistically independent sequences regardless of
    the order in which they are consulted. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] derives a new independent generator and advances [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** True with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val uniform_time : t -> lo:Time.t -> hi:Time.t -> Time.t

val exponential_time : t -> mean:Time.t -> Time.t
(** Exponential with the given mean, rounded to whole nanoseconds. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
