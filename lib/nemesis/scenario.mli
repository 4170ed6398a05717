(** Network-fault scenarios.

    A scenario is pure data: given the cluster size and the fault window
    it produces a deterministic, time-sorted step list.  The campaign
    runner ({!Campaign}) interprets the steps against a live cluster.
    All steps are clipped to [0, duration), so faults never outlive the
    window — the runner heals, recovers, and drains afterwards. *)

open Rt_sim

type edge = int * int
(** A directed site pair (src, dst). *)

type fault =
  | Lossy of { pairs : edge list option; drop : float; duplicate : float }
      (** Overlay drop/duplication on the pairs ([None] = every ordered
          pair), preserving each link's current latency. *)
  | Gray of { pairs : edge list option; factor : int }
      (** Multiply current latency by [factor] — a slow-but-live link. *)
  | Partition of int list list  (** Symmetric component split. *)
  | Sever of edge list  (** One-way cuts: (src, dst) stops delivering. *)
  | Restore of edge list  (** Undo matching {!Sever} edges. *)
  | Heal_partition
      (** Heal components and severed edges; link overlays remain. *)
  | Reset_links  (** Remove every link overlay. *)
  | Crash of int
  | Recover of int
  | Torn_crash of { site : int; keep : int }
      (** Crash with the storage fault profile's torn-write mode: when a
          WAL device cycle is in flight, only [keep] of its records
          survive as durable (clamped to the cycle size) and the rest
          are left as a garbled tail for recovery's scan to truncate;
          otherwise a classical crash.  The campaign's config must arm
          [Config.storage_faults.torn_writes]. *)
  | Corrupt_checkpoint of int
      (** Flip the latest checkpoint snapshot's checksum so the next
          recovery falls back to the previous snapshot or a full log
          replay.  No-op until the site has a previous snapshot. *)
  | Recrash of int
      (** Crash again regardless of up/down state — landing while the
          site is still down models a crash during recovery. *)

type step = Time.t * fault

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

val flapping : ?period:Time.t -> unit -> t
(** The cluster splits into halves at every period boundary and heals
    half a period later (default period 100 ms). *)

val one_way : t
(** Asymmetric partition: the left half's outbound edges are severed
    (requests arrive, replies vanish) on flapping's default 100 ms
    square wave. *)

val churn : t
(** Round-robin crash/recover, one site down at a time: a crash every
    120 ms, down for 60 ms. *)

val coordinator_faults : t
(** Every 150 ms, alternately crash site 0 or sever its outbound links
    for 50 ms — votes reach the coordinator, its decisions vanish. *)

val cuts_reachability : step list -> bool
(** Whether the steps sever reachability ({!Partition} or {!Sever}), as
    opposed to merely degrading links.  Crash-stop-only protocols (3PC)
    are allowed documented divergence under such scenarios. *)
