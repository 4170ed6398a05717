(** Write-ahead log over a simulated stable-storage device.

    Appends go to a volatile buffer; a {!force} enqueues against a
    per-site group-commit controller: with a non-zero [group_window] the
    first force arms a flush timer and every force arriving before it
    fires shares one device write; with a zero window the device starts
    immediately.  Either way, forces issued while the device is busy
    coalesce into the next cycle, and one completed cycle releases every
    waiting continuation it covers — no continuation runs before the
    flush covering its records is durable.  A {!crash} discards the
    non-durable suffix and silences any outstanding completion
    callbacks.

    Every record is stored with a checksum and a sequence-chain field
    (checksum chained to its predecessor's chain value).  On a perfect
    device these are write-only armour; a torn crash ([crash ~torn]) or
    an injected corruption ({!corrupt_record}) leaves bad records on
    disk, and {!scan} is the recovery-time pass that validates the log
    in LSN order and truncates at the first break.

    The record type is a parameter so the same engine backs both database
    logs and protocol-state logs in tests. *)

open Rt_sim

type 'r t

val create :
  ?owner:int ->
  ?group_window:Time.t ->
  Engine.t ->
  force_latency:Time.t ->
  unit ->
  'r t
(** [owner] is the id of the owning site; when given and a crash-point hook
    is installed on the engine, the log announces ["wal:force-volatile"]
    (force requested, records not yet durable) and ["wal:force-durable"]
    (device cycle completed, continuations about to run) so a fault
    injector can crash the site exactly at those boundaries.

    [group_window] (default zero) is the group-commit flush window: the
    first {!force} of a group arms a per-site flush timer (labelled
    ["wal-flush"]) and the device starts only when it fires, so every
    force arriving inside the window shares one device cycle.  Zero
    starts the device on the first force — the classical behaviour.

    Each record's checksum is a digest of its marshalled bytes. *)

type lsn = int
(** Log sequence numbers are 1-based; 0 means "nothing". *)

val append : 'r t -> 'r -> lsn

val tail_lsn : 'r t -> lsn
(** LSN of the last appended record. *)

val durable_lsn : 'r t -> lsn

val force : 'r t -> ?upto:lsn -> (unit -> unit) -> unit
(** [force t ~upto k] calls [k] once every record with LSN ≤ [upto]
    (default: current tail) is durable.  If they already are, [k] runs
    via a zero-delay event.  Callbacks are dropped if the site crashes
    first. *)

val crash : ?torn:int -> 'r t -> unit
(** Lose the non-durable suffix and all pending force callbacks.

    [torn] (honoured only when a device cycle is in flight or just
    completing) tears the cycle: exactly [torn] of its records reach the
    platter and become durable, the rest of the cycle survives on disk
    as garbage with broken checksums — {!scan} must find and drop them —
    and records appended after the cycle are lost cleanly.  Without
    [torn] the crash is the classical atomic one. *)

type scan_result = {
  sc_torn : int;  (** Garbage records dropped from above the durable horizon. *)
  sc_corrupt : int;  (** Durable records dropped — loud data loss. *)
}

val scan : 'r t -> scan_result
(** Recovery-time integrity scan: validate checksum and chain in LSN
    order and truncate the log at the first break.  A break {e above}
    the durable horizon is a torn tail — dropped silently (clean
    truncation).  A break {e at or below} the horizon is corruption of
    supposedly-stable data: the log is truncated there, the durable
    point rolled back so the corrupt records are never replayed, and
    the damage reported in [sc_corrupt] for the caller to escalate
    loudly.  Idempotent: a second scan finds nothing.  On a log that no
    fault touched this is a no-op pass over valid records. *)

val corrupt_record : 'r t -> lsn:lsn -> unit
(** Deterministic fault injection: break the stored checksum of one
    retained record.  Raises [Invalid_argument] if [lsn] is not
    retained. *)

val durable_records : 'r t -> 'r list
(** Durable records in LSN order (after any truncation point). *)

val all_records : 'r t -> 'r list
(** Durable plus still-volatile records, in order. *)

val truncate : 'r t -> upto:lsn -> unit
(** Discard records with LSN ≤ [upto]; numbering is preserved. *)

val first_lsn : 'r t -> lsn
(** LSN of the earliest retained record; [tail_lsn + 1] if empty. *)

val length : 'r t -> int
(** Number of retained records. *)

val force_count : 'r t -> int
(** Device force cycles {e completed} so far (the forced-write cost
    measure).  Cycles that a crash interrupted are excluded — they made
    nothing durable — so the counter is crash-consistent: it never counts
    work whose effects were discarded. *)

val last_cycle_size : 'r t -> int
(** Number of records covered by the current (or most recently started)
    device cycle — the [n] in "crash after [k] of [n] records", so a
    sweep can enumerate every torn point of a cycle it observes. *)

type stats = {
  st_started : int;  (** Device cycles begun. *)
  st_completed : int;  (** Cycles whose completion event ran ([force_count]). *)
  st_lost : int;  (** Cycles interrupted by a crash before completing. *)
  st_torn : int;  (** Cycles a crash left partially durable (torn). *)
  st_pending : int;  (** Force continuations currently waiting. *)
}

val stats : 'r t -> stats
(** Crash-consistent cycle accounting.  Invariant, at every instant:
    [st_started = st_completed + st_lost + st_torn + (1 if the device is
    busy)].  At quiescence on a live site, [st_pending = 0].  The sweep
    audit asserts both. *)

val dump : 'r t -> record:('r -> string) -> string
(** Canonical rendering of the log state for structural fingerprinting:
    truncation base, durable point, device business, then every retained
    record in LSN order tagged [D] (durable) or [v] (volatile).  Two logs
    with the same dump behave identically under crash and recovery. *)
