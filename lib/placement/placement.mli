(** Shard→replica-set assignment: which sites hold physical copies of
    which slice of the keyspace.

    A placement composes a {!Shard_map} (key→shard) with a layout that
    assigns every shard a replica set of [degree] sites:

    - {b Round-robin}: shard [s] lives on sites
      [s, s+1, …, s+degree-1 (mod sites)] — adjacent shards overlap in
      [degree-1] sites, spreading load evenly for any shard count.
    - {b Spread}: shard [s] lives on sites
      [s·degree, …, s·degree+degree-1 (mod sites)] — consecutive shards
      occupy disjoint site groups while [shards·degree ≤ sites],
      minimising the number of shards any one site serves.

    Full replication is the degenerate placement — one shard replicated
    at every site ({!full}) — under which every plan, participant set and
    catch-up peer set reduces to the classical "all sites" of the paper's
    setting.  Placements are pure, deterministic, and validated at
    construction ([1 ≤ degree ≤ sites]). *)

open Rt_types

type layout = Round_robin | Spread

type t

val create :
  ?layout:layout -> map:Shard_map.t -> sites:int -> degree:int -> unit -> t
(** Raises [Invalid_argument] unless [sites > 0] and
    [1 <= degree <= sites].  Default layout is round-robin. *)

val full : sites:int -> t
(** The degenerate placement: one shard, replicated at every site. *)

val sites : t -> int

val degree : t -> int

val shards : t -> int

val shard_map : t -> Shard_map.t

val layout : t -> layout

val is_full : t -> bool
(** One shard and [degree = sites]: classical full replication. *)

val replicas : t -> shard:Shard_map.shard_id -> Ids.site_id list
(** The shard's replica set, sorted ascending.  Raises on an out-of-range
    shard. *)

val shard_of_key : t -> string -> Shard_map.shard_id

val replicas_of_key : t -> string -> Ids.site_id list

val replicates : t -> site:Ids.site_id -> shard:Shard_map.shard_id -> bool

val owns_key : t -> site:Ids.site_id -> string -> bool
(** Does [site] hold a copy of [key]'s shard? *)

val shards_of_site : t -> Ids.site_id -> Shard_map.shard_id list
(** Shards replicated at the site, sorted ascending (empty when the
    layout leaves the site unused). *)

val co_replicas : t -> site:Ids.site_id -> Ids.site_id list
(** Other sites sharing at least one shard with [site], sorted — the
    peers a recovering site can catch up from. *)

val describe : t -> string

val pp : Format.formatter -> t -> unit
