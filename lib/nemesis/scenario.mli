(** Fault scenarios.

    A scenario is a recipe: given the live cluster and the fault window
    it produces a deterministic, time-sorted list of
    {!Rt_core.Failure.fault} steps, which the campaign runner
    ({!Campaign}) schedules with {!Rt_core.Failure.schedule} right after
    its client fleet starts.  All steps are clipped to [0, duration), so
    faults never outlive the window — the runner heals, recovers, and
    drains afterwards. *)

open Rt_sim

type step = Time.t * Rt_core.Failure.fault

type t

val make : string -> (sites:int -> duration:Time.t -> step list) -> t
(** A recipe that reads only the cluster's size. *)

val name : t -> string

val steps : t -> Rt_core.Cluster.t -> duration:Time.t -> step list
(** Build against the cluster, clip to [0, duration), and time-sort the
    scenario's steps (equal-time steps keep their order). *)

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

val random_crashes : mttf:Time.t -> mttr:Time.t -> partition:bool -> t
(** Soak's fault plan: every site alternates up and down with
    exponential times to failure ([mttf]) and repair ([mttr]), drawn by
    {!Rt_core.Failure.random_crashes} from a stream split off the
    cluster's engine when the steps are built.  With [partition], the
    cluster is also split into halves for the middle third of the
    window. *)

val cuts_reachability : step list -> bool
(** Whether the steps sever reachability ([Partition] or [Sever]), as
    opposed to merely degrading links.  Crash-stop-only protocols (3PC)
    are allowed documented divergence under such scenarios. *)
