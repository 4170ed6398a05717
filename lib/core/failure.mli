(** Failure injection: the one fault vocabulary (fail-stop sites,
    network partitions and link faults, a stable-storage disk) and
    schedules of it, scripted or drawn at random, all driven by the
    cluster's virtual clock. *)

open Rt_sim
open Rt_types

type edge = Ids.site_id * Ids.site_id
(** A directed site pair (src, dst). *)

type fault =
  | Lossy of { pairs : edge list option; drop : float; duplicate : float }
      (** Overlay drop/duplication on the pairs ([None] = every ordered
          pair), preserving each link's current latency. *)
  | Gray of { pairs : edge list option; factor : int }
      (** Multiply current latency by [factor] — a slow-but-live link. *)
  | Partition of Ids.site_id list list
      (** Symmetric component split (groups as in
          {!Rt_net.Partition.split}). *)
  | Sever of edge list  (** One-way cuts: (src, dst) stops delivering. *)
  | Restore of edge list  (** Undo matching {!Sever} edges. *)
  | Heal_partition
      (** Heal components and severed edges; link overlays remain. *)
  | Reset_links  (** Remove every link overlay. *)
  | Crash of Ids.site_id  (** No-op on a site that is already down. *)
  | Recover of Ids.site_id  (** No-op on a site that is already up. *)
  | Torn_crash of { site : Ids.site_id; keep : int }
      (** Crash a site that is up; with [Config.storage_faults] on and a
          WAL device cycle in flight, only [keep] of the cycle's records
          survive as durable (clamped to the cycle size) and the rest
          are left as a garbled tail for recovery's scan to truncate.
          Otherwise a classical crash. *)
  | Corrupt_checkpoint of Ids.site_id
      (** Flip the latest checkpoint snapshot's checksum so the next
          recovery falls back to the previous snapshot or a full log
          replay ({!Site.corrupt_checkpoint}).  No-op until the site has
          a previous snapshot. *)
  | Recrash of Ids.site_id
      (** Crash again regardless of up/down state — landing while the
          site is still down models a crash during recovery
          ({!Site.crash_recovering}). *)

val apply : Cluster.t -> fault -> unit
(** Inject one fault now. *)

val schedule : Cluster.t -> (Time.t * fault) list -> unit
(** Install a fixed schedule of faults (absolute virtual times); faults
    due at the same instant are applied in list order. *)

val isolate_shard : Cluster.t -> shard:int -> unit
(** Partition the network so one shard's replica set is cut off from
    every other site.  Cross-shard transactions coordinated outside the
    island must then abort (no split-brain); heal with {!Cluster.heal}. *)

val random_crashes :
  Cluster.t ->
  mttf:Time.t ->
  mttr:Time.t ->
  until:Time.t ->
  (Time.t * fault) list
(** A schedule for {!schedule} in which each site independently
    alternates up and down, with exponentially distributed times to
    failure ([mttf]) and repair ([mttr]), starting now: its [Crash] and
    [Recover] steps up to and including [until].  Deterministic given the
    engine's seed: the draws come from a stream split off the engine's at
    the call. *)

(** {1 Crash-point fault injection}

    Instrumented components announce named execution points (see
    {!Rt_sim.Engine.crash_point}); these helpers install the engine hook
    that either records the stream of points (discovery pass) or crashes a
    site at an exact occurrence of one (injection pass).  At most one hook
    is active per engine — installing a new one replaces the old. *)

val observe_crash_points_sized :
  Cluster.t -> unit -> (Ids.site_id * string * int) list
(** [observe_crash_points_sized cluster] starts recording every announced
    point together with the announcing site's WAL device-cycle size at
    that point — for ["wal:force-durable"], the number of records [n] in
    the cycle that just flushed, from which a torn-write sweep enumerates
    every crash-after-[k] variant.  The returned thunk yields the stream
    so far, in announcement order. *)

val crash_at_point :
  Cluster.t ->
  ?torn:int ->
  site:Ids.site_id ->
  point:string ->
  occurrence:int ->
  recover_after:Time.t ->
  unit ->
  unit ->
  bool
(** [crash_at_point cluster ~site ~point ~occurrence ~recover_after ()]
    crashes [site] the [occurrence]-th time (1-based) it announces
    [point], then schedules its recovery [recover_after] later.  Fires at
    most once per installation.  [torn] is forwarded to the crash (see
    {!Cluster.crash_site}).  The returned thunk reports whether the
    injection happened — a discovery-pass point that is never reached
    again under the same seed is a determinism violation. *)
