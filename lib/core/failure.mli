(** Failure injection: scripted schedules and random crash/recover
    processes, driven by the cluster's virtual clock. *)

open Rt_sim
open Rt_types

type event =
  | Crash of Ids.site_id
  | Recover of Ids.site_id
  | Partition of Ids.site_id list list
  | Heal

val schedule : Cluster.t -> (Time.t * event) list -> unit
(** Install a fixed schedule of failure events (absolute virtual times). *)

val isolate_shard : Cluster.t -> shard:int -> unit
(** Partition the network so one shard's replica set is cut off from
    every other site.  Cross-shard transactions coordinated outside the
    island must then abort (no split-brain); heal with {!Cluster.heal}. *)

type process

val random_crashes :
  Cluster.t ->
  mttf:Time.t ->
  mttr:Time.t ->
  process
(** Each site independently alternates up/down with
    exponentially distributed times to failure ([mttf]) and repair
    ([mttr]).  Deterministic given the engine's seed.  Runs until
    {!stop}. *)

val stop : process -> unit

(** {1 Crash-point fault injection}

    Instrumented components announce named execution points (see
    {!Rt_sim.Engine.crash_point}); these helpers install the engine hook
    that either records the stream of points (discovery pass) or crashes a
    site at an exact occurrence of one (injection pass).  At most one hook
    is active per engine — installing a new one replaces the old. *)

val observe_crash_points : Cluster.t -> unit -> (Ids.site_id * string) list
(** [observe_crash_points cluster] starts recording every announced point;
    the returned thunk yields the stream so far, in announcement order. *)

val observe_crash_points_sized :
  Cluster.t -> unit -> (Ids.site_id * string * int) list
(** Like {!observe_crash_points}, additionally recording the announcing
    site's WAL device-cycle size at each point — for
    ["wal:force-durable"], the number of records [n] in the cycle that
    just flushed, from which a torn-write sweep enumerates every
    crash-after-[k] variant. *)

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
