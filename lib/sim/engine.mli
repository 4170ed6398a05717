(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of events: a
    binary heap plus fixed-delay FIFO lines (see {!line}).  Events
    scheduled for the same instant fire in scheduling order, which makes runs
    deterministic.  All components of the simulated system (network, storage
    devices, failure injectors, clients) interact only by scheduling events
    here. *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

(** {2 Event labels}

    Every event carries a label describing what firing it means, so a
    schedule explorer can enumerate the pending frontier and decide which
    admissible event to fire next instead of following timestamp order.
    Labels are free for normal runs — {!run} ignores them.

    - [Internal site]: a glue step (zero-delay continuation, local
      loopback, and plumbing: the WAL device cycle, the group-commit and
      link-batch flushes) that is not an independent scheduling choice;
      [-1] means "no owning site".  The default.
    - [Delivery]: a network message arrival at [dst].
    - [Timer]: a one-shot timeout whose early/late firing is a real
      protocol schedule (resend, vote-collect, lock-wait, recovery).
    - [Recurring]: a self-re-arming background activity (heartbeats);
      explorers skip these or the frontier never drains. *)
type label =
  | Internal of int
  | Delivery of { src : int; dst : int }
  | Timer of { site : int; name : string }
  | Recurring of { site : int; name : string }

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes an engine whose root RNG is seeded with [seed]
    (default 0). *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root RNG.  Components should [Rng.split] it at setup time
    rather than drawing from it during the run. *)

val schedule_at : ?label:label -> t -> Time.t -> (unit -> unit) -> event_id
(** [schedule_at t when_ f] runs [f] at virtual time [when_].  If [when_] is
    in the past, the event fires at the current time.  [label] defaults to
    [Internal (-1)]. *)

val schedule_after : ?label:label -> t -> Time.t -> (unit -> unit) -> event_id
(** [schedule_after t delay f] runs [f] [delay] after the current time. *)

(** {2 Fixed-delay lines}

    A component that schedules many events at one fixed delay (a
    reclamation timer, a sweep) can put them on a line instead of the
    engine's heap: pushing and popping a line costs amortized O(1),
    where the heap costs O(log n) in everything queued.

    Every event on a line fires at [now + delay] and takes the next
    sequence number.  The clock never decreases and sequence numbers
    rise, so a line, in the order it was filled, is already sorted by
    [(fire_at, seq)].  The queue's next event is therefore the least of
    the heap's top and the line heads, and an event scheduled on a line
    is indistinguishable from one scheduled with {!schedule_after} at
    the same delay: {!run}, {!fire}, {!frontier}, {!pending} and
    {!live_pending} see exactly the same order and counts. *)

type line

val line : t -> Time.t -> line
(** [line t delay] is [t]'s line for [delay], made on first use: one
    line per distinct delay per engine, so look it up once at set-up.
    Raises [Invalid_argument] if [delay] is negative. *)

val schedule_on : ?label:label -> line -> (unit -> unit) -> event_id
(** [schedule_on l f] runs [f] [l]'s delay after the current time of
    [l]'s engine, like [schedule_after ?label t delay f]. *)

val event_seq : event_id -> int
(** The event's scheduling sequence number — unique per engine, assigned
    at scheduling time, and therefore stable across replays that share
    the same execution prefix.  Explorers use it as the event's identity. *)

val frontier : t -> (int * Time.t * label) list
(** Live (non-cancelled) pending events as [(seq, fire_at, label)],
    sorted by [(fire_at, seq)] — the order {!run} would fire them in. *)

val fire : t -> int -> bool
(** [fire t seq] executes the pending event with the given sequence
    number {e now}, regardless of its timestamp: the clock advances to
    [max now fire_at] and the thunk runs.  This is the explorer's
    primitive for realising one admissible reordering of the frontier.
    Returns [false] (and fires nothing) if no live event has that seq.
    Removal is keyed: a linear search for the seq (a line's search stops
    at the first larger seq), then an O(log n) heap repair or, on a
    line, closing up the events behind it; no other event leaves the
    queue. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of events still queued (including cancelled ones not yet
    drained). *)

val live_pending : t -> int
(** Number of queued events that are not cancelled — the quiescence/timer
    audit used by the crash-point sweep: a component that keeps re-arming
    a timer after its work is done shows up as a live event that never
    drains. *)

(** {2 Crash points}

    Instrumented components (the WAL, the protocol interpreters) announce
    named execution points through the engine; a fault-injection harness
    installs a hook to record them or to crash a site at an exact
    occurrence.  With no hook installed the announcements are free. *)

type crash_hook = site:int -> point:string -> unit

val set_crash_hook : t -> crash_hook option -> unit
(** Install (or with [None] remove) the global crash-point hook.  The hook
    may synchronously crash the announcing site; announcing components
    must re-check their own liveness when [crash_point] returns. *)

val crash_hook_installed : t -> bool
(** Cheap guard so hot paths can skip building point names. *)

val crash_point : t -> site:int -> point:string -> unit
(** Announce that [site] reached the named point.  No-op without a hook. *)

val processed : t -> int
(** Number of events executed so far. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Execute events in time order until the queue is empty, the clock would
    pass [until], or [max_events] have been executed.  Events scheduled
    exactly at [until] do fire.  The clock never decreases: an event
    whose time {!fire} already overtook runs late, at the current time. *)
