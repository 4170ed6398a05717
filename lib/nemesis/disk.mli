(** Disk-fault nemesis campaign.

    Composes the storage fault model's failure modes — torn WAL device
    cycles, corrupted checkpoint snapshots, and re-crashes during
    recovery — into {!Scenario}s and runs them through the shared
    {!Campaign} machinery: client fleet, heal, drain, and the full
    {!Rt_core.Audit} battery.  Every run arms [Config.storage_faults];
    all injection is explicit scenario steps, so the rendered report is
    byte-identical for a given seed. *)

open Rt_sim

val default_scenarios : Scenario.t list
(** Five scenarios: [calm-disk], storage faults armed and nothing
    injected (the control row); [torn-churn], round-robin torn crashes
    that keep 0, 1 or 2 records of the in-flight device cycle;
    [cp-corrupt], a crash whose latest checkpoint is corrupted while the
    site is down, so recovery must fall back to the previous snapshot
    or a full replay; [recovery-recrash], a crash during recovery and
    another the instant replay finishes, so the double replay must be
    idempotent; and [torn+cp], a torn crash plus a corrupt checkpoint on
    one site. *)

val arm : Rt_core.Config.t -> Rt_core.Config.t
(** The campaign's tune: arm [storage_faults] on a slow device — 400 µs
    force latency with a 200 µs group-commit window — so multi-record
    cycles are in flight often enough for the scenarios' crashes to
    genuinely tear them. *)

val run :
  ?seed:int ->
  ?sites:int ->
  ?clients:int ->
  ?duration:Time.t ->
  unit ->
  Campaign.result list
(** The full disk scenario × protocol × placement matrix (5 × 6 × 2 = 60
    runs at the default 5 sites) with {!arm} applied to every cell. *)

val render : Campaign.result list -> string
(** Markdown table (committed/aborted plus the disk counters: torn tails
    truncated, checkpoint fallbacks) followed by one line per violation;
    byte-stable for a given seed.  A durable record lost to corruption
    shows as a [storage] violation. *)
