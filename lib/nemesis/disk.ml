(* Disk-fault nemesis campaign: torn writes, checkpoint corruption, and
   recovery-time re-crashes, composed into scenarios and run through the
   shared campaign machinery (client fleet, heal, drain, Rt_core.Audit).
   Every run arms Config.storage_faults; every fault is an explicit
   scenario step, so the campaign stays byte-deterministic per seed. *)

open Rt_sim
open Rt_core

let ms = Time.ms

(* Control row: storage faults armed, no faults injected — the campaign's
   baseline must look exactly like a calm network run. *)
let calm_disk = Scenario.make "calm-disk" (fun ~sites:_ ~duration:_ -> [])

let torn_churn =
  let every = ms 60 and down_for = ms 30 in
  Scenario.make
    (Printf.sprintf "torn-churn(%dms/%dms)" (every / ms 1) (down_for / ms 1))
    (fun ~sites ~duration ->
      (* Round-robin torn crashes: each round tears the in-flight device
         cycle at a different survivor count (0, 1, 2 records kept). *)
      let rounds = duration / every in
      List.concat
        (List.init rounds (fun k ->
             let site = k mod sites in
             let at = k * every in
             [
               (at, Failure.Torn_crash { site; keep = k mod 3 });
               (Time.add at down_for, Failure.Recover site);
             ])))

let checkpoint_corrupt =
  let every = ms 90 and down_for = ms 45 in
  Scenario.make
    (Printf.sprintf "cp-corrupt(%dms/%dms)" (every / ms 1) (down_for / ms 1))
    (fun ~sites ~duration ->
      (* Crash a site, corrupt its latest checkpoint while it is down,
         then recover: restoration must fall back to the previous
         snapshot or a full log replay, never install garbage. *)
      let rounds = duration / every in
      List.concat
        (List.init rounds (fun k ->
             let site = k mod sites in
             let at = k * every in
             [
               (at, Failure.Crash site);
               (Time.add at (ms 5), Failure.Corrupt_checkpoint site);
               (Time.add at down_for, Failure.Recover site);
             ])))

let recovery_recrash =
  let every = ms 100 in
  Scenario.make
    (Printf.sprintf "recovery-recrash(%dms)" (every / ms 1))
    (fun ~sites ~duration ->
      (* Crash; crash again while still down (the log must survive a
         second hit); recover; re-crash the instant replay finishes and
         recover once more — the double replay must be idempotent.
         Equal-time steps keep list order (stable sort). *)
      let rounds = duration / every in
      List.concat
        (List.init rounds (fun k ->
             let site = k mod sites in
             let at = k * every in
             let up = Time.add at (ms 30) in
             [
               (at, Failure.Crash site);
               (Time.add at (ms 10), Failure.Recrash site);
               (up, Failure.Recover site);
               (up, Failure.Recrash site);
               (up, Failure.Recover site);
             ])))

let torn_plus_checkpoint =
  let every = ms 80 and down_for = ms 40 in
  Scenario.make
    (Printf.sprintf "torn+cp(%dms/%dms)" (every / ms 1) (down_for / ms 1))
    (fun ~sites ~duration ->
      (* The composed worst case: a torn crash AND a corrupted latest
         checkpoint on the same site, so recovery must both truncate the
         garbled tail and fall back past the bad snapshot. *)
      let rounds = duration / every in
      List.concat
        (List.init rounds (fun k ->
             let site = k mod sites in
             let at = k * every in
             [
               (at, Failure.Torn_crash { site; keep = 1 });
               (Time.add at (ms 5), Failure.Corrupt_checkpoint site);
               (Time.add at down_for, Failure.Recover site);
             ])))

let default_scenarios =
  [
    calm_disk;
    torn_churn;
    checkpoint_corrupt;
    recovery_recrash;
    torn_plus_checkpoint;
  ]

(* Arm storage faults on a slow device: a group-commit window keeps
   multi-record cycles in flight for a meaningful fraction of the run, so
   the scenarios' crashes actually catch cycles mid-write — with the
   default 50 µs force latency almost every crash would land on an idle
   device and tear nothing. *)
let arm c =
  {
    c with
    Config.storage_faults = true;
    force_latency = Time.us 400;
    group_commit_window = Time.us 200;
  }

let run ?(seed = 1) ?(sites = 5) ?clients ?duration () =
  Campaign.run ~seed ~sites ?clients ?duration ~tune:arm
    ~scenarios:default_scenarios ()

let render results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "| scenario | protocol | placement | committed | aborted | torn | cp \
     fallback | drain | violations |\n";
  Buffer.add_string buf "|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Format.asprintf "| %s | %s | %s | %d | %d | %d | %d | %a | %d |\n"
           r.Campaign.r_scenario r.Campaign.r_protocol r.Campaign.r_placement
           r.Campaign.r_committed r.Campaign.r_aborted r.Campaign.r_torn
           r.Campaign.r_cp_fallbacks Campaign.pp_drain r.Campaign.r_drain
           (List.length r.Campaign.r_violations)))
    results;
  let violation_lines = Campaign.violation_lines results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  Buffer.add_string buf
    (Printf.sprintf
       "\ntotal: %d runs, %d violations, %d torn tails truncated, %d \
        checkpoint fallbacks\n"
       (List.length results)
       (List.length violation_lines)
       (sum (fun r -> r.Campaign.r_torn))
       (sum (fun r -> r.Campaign.r_cp_fallbacks)));
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    violation_lines;
  Buffer.contents buf
