(** Transaction mixes: what a generated transaction looks like.

    An operation reads or writes a key; a transaction is a list of
    operations executed in order under one atomic envelope.  Mixes are
    parameterised the way the tables in the paper sweep them: number of
    keys touched, read fraction, and access skew. *)

type op = Read of string | Write of string * string

val op_key : op -> string

val is_read : op -> bool

type t = {
  keys : int;  (** Keyspace size. *)
  theta : float;  (** Zipf skew over the keyspace. *)
  ops_per_txn : int;
  read_fraction : float;  (** Probability each op is a read. *)
  value_size : int;  (** Payload bytes per written value. *)
}

val default : t
(** 1000 keys, uniform, 4 ops, 50% reads, 16-byte values. *)

val read_only : t -> t

val key_of : int -> string
(** Stable key naming ("k000042"). *)

type gen

val generator : t -> Rt_sim.Rng.t -> gen

val next_txn : gen -> op list
(** Keys within one transaction are distinct and sorted, which gives
    deterministic lock-acquisition order (the classical deadlock-avoidance
    discipline); disable with {!next_txn_unordered} to measure deadlocks. *)

val next_txn_unordered : gen -> op list
(** Same sampling but keys in access order (duplicates removed), so
    opposite-order conflicts — and hence deadlocks — can occur. *)

val populate : t -> (key:string -> value:string -> unit) -> unit
(** Call the setter for every key with an initial value. *)
