(** Disk-fault nemesis campaign.

    Composes the storage fault model's failure modes — torn WAL device
    cycles, corrupted checkpoint snapshots, and re-crashes during
    recovery — into {!Scenario}s and runs them through the shared
    {!Campaign} machinery: client fleet, heal, drain, and the full
    {!Rt_core.Audit} battery.  Every run arms [Config.storage_faults];
    all injection is explicit scenario steps, so the rendered report is
    byte-identical for a given seed. *)

open Rt_sim

val calm_disk : Scenario.t
(** Storage faults armed, nothing injected — the campaign's control row
    must behave exactly like a calm run. *)

val torn_churn : Scenario.t
(** Round-robin torn crashes: each round tears the victim's in-flight
    WAL device cycle at a different survivor count (0, 1, 2 records
    kept), then recovers it.  A crash every 60 ms, down for 30 ms. *)

val checkpoint_corrupt : Scenario.t
(** Crash a site, corrupt its latest checkpoint snapshot while it is
    down, then recover it: restoration must fall back to the previous
    snapshot or a full log replay, never install garbage.  Every 90 ms,
    down for 45 ms. *)

val recovery_recrash : Scenario.t
(** Crash; crash again while still down; recover; re-crash the instant
    replay finishes; recover once more.  The double replay must be
    idempotent and the log must survive repeated hits.  Every 100 ms. *)

val torn_plus_checkpoint : Scenario.t
(** The composed worst case: a torn crash AND a corrupted latest
    checkpoint on the same site, so one recovery must both truncate the
    garbled tail and fall back past the bad snapshot.  Every 80 ms, down
    for 40 ms. *)

val default_scenarios : Scenario.t list
(** {!calm_disk}, {!torn_churn}, {!checkpoint_corrupt},
    {!recovery_recrash}, and {!torn_plus_checkpoint}. *)

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
