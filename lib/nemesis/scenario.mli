(** Fault scenarios.

    A scenario is pure data: given the cluster size and the fault window
    it produces a deterministic, time-sorted list of
    {!Rt_core.Failure.fault} steps, which the campaign runner
    ({!Campaign}) schedules against a live cluster with
    {!Rt_core.Failure.schedule}.  All steps are clipped to
    [0, duration), so faults never outlive the window — the runner
    heals, recovers, and drains afterwards. *)

open Rt_sim

type step = Time.t * Rt_core.Failure.fault

type t

val make : string -> (sites:int -> duration:Time.t -> step list) -> t

val name : t -> string

val steps : t -> sites:int -> duration:Time.t -> step list
(** Build, clip to [0, duration), and time-sort the scenario's steps. *)

(** {2 Stock scenarios} *)

val calm : t
(** No faults — the control row of a campaign. *)

val lossy : ?drop:float -> ?duplicate:float -> unit -> t
(** Every link drops and duplicates with the given probabilities for the
    whole window (defaults 0.05 each). *)

val gray : t
(** Site 0's links (both directions) run 8× slower. *)

val flapping : t
(** The cluster splits into halves every 100 ms and heals 50 ms
    later. *)

val one_way : t
(** Asymmetric partition: the left half's outbound edges are severed
    (requests arrive, replies vanish) on flapping's 100 ms square
    wave. *)

val churn : t
(** Round-robin crash/recover, one site down at a time: a crash every
    120 ms, down for 60 ms. *)

val coordinator_faults : t
(** Every 150 ms, alternately crash site 0 or sever its outbound links
    for 50 ms — votes reach the coordinator, its decisions vanish. *)

val cuts_reachability : step list -> bool
(** Whether the steps sever reachability ([Partition] or [Sever]), as
    opposed to merely degrading links.  Crash-stop-only protocols (3PC)
    are allowed documented divergence under such scenarios. *)
