(** Schedule-exploring interpreter for the commitment state machines.

    The sandbox runs one transaction's worth of machines (a coordinator
    plus a participant per site) over an abstract event soup: message
    deliveries, forced-log completions, and timer firings.  A seeded RNG
    picks the next event, so one seed is one totally-ordered schedule;
    sweeping seeds explores many interleavings.  Crash points are
    expressed as "site s crashes after the k-th processed event", and
    recovery rebuilds machines from the records that were durable at the
    crash, exactly as a real site would.

    Timers only fire at quiescence (no deliveries or log completions
    pending), which models the usual "timeouts are long relative to
    message delay" assumption and keeps runs finite.

    This is the engine behind the agreement/validity property tests and
    the message/forced-write accounting of experiment T1. *)

open Rt_types
open Protocol

type outcome = {
  decisions : (Ids.site_id * decision) list;
      (** Final decision delivered at each site that decided (sorted). *)
  agreement : bool;  (** No two sites decided differently. *)
  all_decided : bool;  (** Every live site reached a decision. *)
  messages : int;  (** Protocol messages sent. *)
  forced_writes : int;
  lazy_writes : int;
  blocked : bool;  (** Some machine reported itself blocked. *)
  steps : int;  (** Events processed. *)
  timeouts_fired : int;
}

val run :
  ?seed:int ->
  ?crashes:(Ids.site_id * int) list ->
  ?recoveries:(Ids.site_id * int) list ->
  ?max_steps:int ->
  ?read_only:bool array ->
  proto:Commit_protocol.t ->
  sites:int ->
  votes:bool array ->
  unit ->
  outcome
(** [run ~proto ~sites ~votes ()] executes one transaction with site 0 as
    coordinator and every site as a participant, so [proto]'s thresholds
    resolve over all [sites] (see {!Commit_protocol.label}).  [votes.(i)]
    is site [i]'s phase-1 vote.  [crashes] kills
    a site after the given number of processed events (its machines and
    queued events vanish; peers get failure-detector notice).
    [recoveries] rebuilds a crashed site's machines from its durable log
    records at the given event count.  [max_steps] (default 10_000) bounds
    runaway retry loops; hitting it leaves [all_decided] false.
    [read_only.(i)] marks site [i]'s participant as having performed no
    writes (enables the 2PC read-only optimization; other protocols
    ignore it). *)

val run_fifo :
  proto:Commit_protocol.t -> sites:int -> votes:bool array -> unit -> outcome
(** Deterministic failure-free run with strict FIFO event processing; the
    canonical cost-measurement mode for T1. *)
