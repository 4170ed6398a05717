(* Deeper cluster tests: checkpointing and log truncation, presumed-commit
   recovery semantics, random partitions (no-fork property), read-only
   optimization end to end, and a randomized soak with crashes. *)

open Rt_sim
open Rt_core
module Mix = Rt_workload.Mix
module Kv = Rt_storage.Kv

let run_for cluster d =
  Cluster.run ~until:(Time.add (Cluster.now cluster) d) cluster

let run_one cluster ~site ~ops =
  let result = ref None in
  Cluster.submit cluster ~site ~ops ~k:(fun o -> result := Some o);
  run_for cluster (Time.sec 2);
  !result

let check_committed = function
  | Some Site.Committed -> ()
  | Some (Site.Aborted r) ->
      Alcotest.failf "expected commit, got %s" (Site.abort_reason_label r)
  | None -> Alcotest.fail "no outcome"

let value_at cluster site key =
  Option.map
    (fun (i : Kv.item) -> i.value)
    (Kv.get (Site.kv (Cluster.site cluster site)) key)

(* --- checkpoints -------------------------------------------------------- *)

let test_checkpoint_truncates_and_recovers () =
  let config =
    { (Config.default ~sites:3 ()) with checkpoint_every = 5; seed = 3 }
  in
  let cluster = Cluster.create config in
  for i = 1 to 30 do
    check_committed
      (run_one cluster ~site:(i mod 3)
         ~ops:[ Mix.Write (Printf.sprintf "k%d" (i mod 7), string_of_int i) ])
  done;
  (* Checkpoints happened and kept the log short. *)
  let s0 = Cluster.site cluster 0 in
  Alcotest.(check bool) "log truncated" true (Site.log_length s0 < 60);
  (* A crash after truncation still recovers the full state. *)
  let before = Kv.snapshot (Site.kv s0) in
  Cluster.crash_site cluster 0;
  run_for cluster (Time.ms 100);
  Cluster.recover_site cluster 0;
  run_for cluster (Time.ms 500);
  Alcotest.(check bool) "serving after recovery" true (Site.serving s0);
  Alcotest.(check bool) "state identical after restart" true
    (Kv.snapshot (Site.kv s0) = before)

let fixed_links config =
  {
    config with
    Config.link = Rt_net.Net.reliable_link (Rt_net.Latency.Fixed (Time.us 100));
  }

(* Checkpoints release what they pin: with a checkpoint after every
   commit, 100 sequential fault-free transactions (origins round-robin,
   each submitted 1 ms after the previous outcome) leave every site's log
   short under every protocol. *)
let test_checkpoint_pins_released () =
  List.iter
    (fun (name, protocol) ->
      let config =
        fixed_links
          { (Config.default ~sites:3 ()) with
            commit_protocol = protocol;
            checkpoint_every = 1;
            seed = 0 }
      in
      let cluster = Cluster.create config in
      let engine = Cluster.engine cluster in
      let committed = ref 0 in
      let rec submit i =
        if i < 100 then
          Cluster.submit cluster ~site:(i mod 3)
            ~ops:[ Mix.Write (Printf.sprintf "k%d" (i mod 7), string_of_int i) ]
            ~k:(fun o ->
              (match o with
              | Site.Committed -> incr committed
              | Site.Aborted _ -> ());
              ignore
                (Engine.schedule_after engine (Time.ms 1) (fun () ->
                     submit (i + 1))))
      in
      ignore (Engine.schedule_at engine (Time.ms 1) (fun () -> submit 0));
      Cluster.run ~until:(Time.sec 3) cluster;
      Alcotest.(check int) (name ^ ": all committed") 100 !committed;
      Array.iter
        (fun s ->
          let len = Site.log_length s in
          if len > 10 then
            Alcotest.failf "%s: site %d keeps %d log records" name (Site.id s)
              len)
        (Cluster.sites cluster))
    Rt_commit.Commit_protocol.all

(* --- presumed-commit recovery ------------------------------------------- *)

let test_prc_collecting_aborts_after_coordinator_crash () =
  (* Presumed commit force-writes a Collecting record before voting; if
     the coordinator crashes before any decision, recovery must answer
     inquiries with ABORT for that transaction (despite the commit
     presumption for unknown ones). *)
  let config =
    { (Config.default ~sites:3 ()) with
      commit_protocol = Config.Two_phase Rt_commit.Two_pc.Presumed_commit;
      seed = 13 }
  in
  let cluster = Cluster.create config in
  let outcome = ref None in
  Cluster.submit cluster ~site:0 ~ops:[ Mix.Write ("x", "1") ] ~k:(fun o ->
      outcome := Some o);
  (* Crash the coordinator just after the collecting record is durable
     but (very likely) before the decision. *)
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Time.us 120) (fun () ->
         Cluster.crash_site cluster 0));
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Time.ms 30) (fun () ->
         Cluster.recover_site cluster 0));
  run_for cluster (Time.sec 2);
  (* Whatever happened, all sites agree and nothing is stuck. *)
  Array.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "no stuck participants at %d" (Site.id s))
        0 (Site.active_participants s))
    (Cluster.sites cluster);
  Alcotest.(check bool) "replicas agree" true (Cluster.converged cluster)

(* --- coordinator log retention ------------------------------------------ *)

let at cluster ms f =
  ignore (Engine.schedule_at (Cluster.engine cluster) (Time.ms ms) f)

(* The first transaction site 0 submits, at 1 ms. *)
let t01 = Rt_types.Ids.Txn_id.make ~origin:0 ~seq:1 ~start_ts:(Time.ms 1)

let decision_of site txn =
  List.find_map
    (fun (t, d) -> if Rt_types.Ids.Txn_id.equal t txn then Some d else None)
    (Site.decided_txns site)

(* A checkpoint must keep the records of a coordinator that still owes a
   participant the decision.  Site 1 crashes right after logging Prepared
   (its Yes is already out) and is down when T0.1's commit is sent.  The
   commit of site 0's second transaction takes a checkpoint; site 0 then
   crashes and recovers, and must still answer site 1's inquiry with the
   commit it decided, not with its protocol's abort presumption. *)
let coordinator_keeps_decision variant () =
  let config =
    fixed_links
      { (Config.default ~sites:3 ()) with
        commit_protocol = Config.Two_phase variant;
        checkpoint_every = 1;
        seed = 0 }
  in
  let cluster = Cluster.create config in
  let injected =
    Failure.crash_at_point cluster ~site:1 ~point:"part:logged-prepared"
      ~occurrence:1 ~recover_after:(Time.ms 500) ()
  in
  let first = ref None in
  at cluster 1 (fun () ->
      Cluster.submit cluster ~site:0 ~ops:[ Mix.Write ("a", "1") ] ~k:(fun o ->
          first := Some o));
  at cluster 100 (fun () ->
      Cluster.submit cluster ~site:0 ~ops:[ Mix.Read "a" ] ~k:(fun _ -> ()));
  at cluster 200 (fun () -> Cluster.crash_site cluster 0);
  at cluster 250 (fun () -> Cluster.recover_site cluster 0);
  Cluster.run ~until:(Time.sec 3) cluster;
  Alcotest.(check bool) "site 1 crashed after preparing" true (injected ());
  check_committed !first;
  List.iter
    (fun (v : Audit.violation) ->
      if v.inv = "agreement" then Alcotest.failf "agreement: %s" v.detail)
    (Audit.standard cluster);
  match decision_of (Cluster.site cluster 1) t01 with
  | Some Rt_commit.Protocol.Commit -> ()
  | Some Rt_commit.Protocol.Abort -> Alcotest.fail "site 1 aborted T0.1"
  | None -> Alcotest.fail "site 1 never decided T0.1"

(* The presumed-commit counterpart: the Collecting record of a
   coordinator that is no participant must survive a checkpoint until
   the transaction ends.  Four sites, range shards split at "b" with
   three replicas each: "b" lives on sites 1-3, "a" on sites 0-2.  Site 3
   crashes at its first forced write, so it never votes on T0.1.  Site
   0's second transaction commits (and checkpoints) before site 0
   crashes; recovery must find T0.1's Collecting record and abort it,
   where an empty log would have presumed commit without site 3's vote. *)
let test_prc_coordinator_keeps_collecting () =
  let config =
    fixed_links
      { (Config.default ~sites:4 ()) with
        commit_protocol = Config.Two_phase Rt_commit.Two_pc.Presumed_commit;
        placement =
          Some
            (Rt_placement.Placement.create
               ~map:(Rt_placement.Shard_map.range ~boundaries:[ "b" ])
               ~sites:4 ~degree:3 ());
        checkpoint_every = 1;
        seed = 0 }
  in
  let cluster = Cluster.create config in
  let injected =
    Failure.crash_at_point cluster ~site:3 ~point:"wal:force-volatile"
      ~occurrence:1 ~recover_after:(Time.ms 400) ()
  in
  at cluster 1 (fun () ->
      Cluster.submit cluster ~site:0 ~ops:[ Mix.Write ("b", "1") ] ~k:ignore);
  at cluster 2 (fun () ->
      Cluster.submit cluster ~site:0 ~ops:[ Mix.Write ("a", "1") ] ~k:ignore);
  at cluster 20 (fun () -> Cluster.crash_site cluster 0);
  at cluster 30 (fun () -> Cluster.recover_site cluster 0);
  Cluster.run ~until:(Time.sec 3) cluster;
  Alcotest.(check bool) "site 3 crashed before voting" true (injected ());
  Array.iter
    (fun s ->
      match decision_of s t01 with
      | Some Rt_commit.Protocol.Commit ->
          Alcotest.failf "site %d committed T0.1 without site 3's vote"
            (Site.id s)
      | Some Rt_commit.Protocol.Abort | None -> ())
    (Cluster.sites cluster)

(* --- read-only optimization end to end ---------------------------------- *)

let test_read_only_optimization_cluster () =
  let base = { (Config.default ~sites:3 ()) with seed = 5 } in
  (* A read-only transaction over a majority read quorum involves one
     remote participant that performs no writes — exactly the case the
     optimization targets.  Count commit-protocol messages via the
     cluster counters (heartbeats would otherwise drown the difference). *)
  let count_msgs config =
    let cluster = Cluster.create config in
    check_committed (run_one cluster ~site:0 ~ops:[ Mix.Write ("a", "1") ]);
    let c = Cluster.counters cluster in
    let before = Rt_metrics.Counter.get c "commit_protocol_msgs" in
    check_committed (run_one cluster ~site:0 ~ops:[ Mix.Read "a" ]);
    (Rt_metrics.Counter.get c "commit_protocol_msgs" - before, cluster)
  in
  let rc = Rt_replica.Replica_control.majority ~sites:3 in
  let off, _ = count_msgs { base with replica_control = rc } in
  let on, cluster_on =
    count_msgs { base with replica_control = rc; read_only_optimization = true }
  in
  (* Unoptimized: vote-req + vote + decision + ack = 4 cross-site
     messages; optimized: vote-req + read-only vote = 2. *)
  Alcotest.(check int) "unoptimized read-only txn" 4 off;
  Alcotest.(check int) "optimized read-only txn" 2 on;
  (* Both the remote and the coordinator's local participant were
     read-only. *)
  Alcotest.(check int) "read-only releases counted" 2
    (Rt_metrics.Counter.get (Cluster.counters cluster_on) "readonly_releases");
  Alcotest.(check (option string)) "state untouched" (Some "1")
    (value_at cluster_on 0 "a")

(* --- random partitions: no forks under quorum --------------------------- *)

let prop_random_partitions_never_fork =
  QCheck.Test.make ~name:"quorum control never forks under random partitions"
    ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 0 30))
    (fun (seed, cut) ->
      let config =
        { (Config.default ~sites:5 ()) with
          replica_control = Rt_replica.Replica_control.majority ~sites:5;
          commit_protocol =
            Config.Quorum_commit { commit_quorum = None; abort_quorum = None };
          seed }
      in
      let cluster = Cluster.create config in
      let mix = { Mix.default with keys = 30; ops_per_txn = 2 } in
      Cluster.populate cluster mix;
      let fleet =
        Client.start_fleet ~cluster ~clients:5 ~mix ~retry_aborts:false ()
      in
      (* A partition whose split point is randomized, then healed. *)
      let left = List.init (1 + (cut mod 4)) (fun i -> i) in
      let right =
        List.filter (fun s -> not (List.mem s left)) [ 0; 1; 2; 3; 4 ]
      in
      Failure.schedule cluster
        [
          (Time.ms 50, Failure.Partition [ left; right ]);
          (Time.ms 250, Failure.Heal_partition);
        ];
      Cluster.run ~until:(Time.ms 400) cluster;
      List.iter Client.stop fleet;
      Cluster.run ~until:(Time.ms 600) cluster;
      (* Fork check: no key may carry the same version with different
         values on two sites. *)
      let sites = Cluster.sites cluster in
      let forked = ref false in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              Kv.iter (Site.kv a) (fun key (ia : Kv.item) ->
                  match Kv.get (Site.kv b) key with
                  | Some ib ->
                      if ia.version = ib.version && ia.value <> ib.value then
                        forked := true
                  | None -> ()))
            sites)
        sites;
      not !forked)

(* --- soak: random crashes and recoveries, invariants hold --------------- *)

let test_soak_crash_recover_available_copies () =
  let config =
    { (Config.default ~sites:3 ()) with
      replica_control = Rt_replica.Replica_control.available_copies;
      checkpoint_every = 20;
      seed = 99 }
  in
  let cluster = Cluster.create config in
  let mix = { Mix.default with keys = 60; ops_per_txn = 3; read_fraction = 0.4 } in
  Cluster.populate cluster mix;
  let fleet = Client.start_fleet ~cluster ~clients:6 ~mix () in
  Failure.schedule cluster
    (Failure.random_crashes cluster ~mttf:(Time.ms 400) ~mttr:(Time.ms 80)
       ~until:(Time.sec 3));
  Cluster.run ~until:(Time.sec 3) cluster;
  List.iter Client.stop fleet;
  (* Let everything recover and drain. *)
  Array.iteri
    (fun i s -> if not (Site.is_up s) then Cluster.recover_site cluster i)
    (Cluster.sites cluster);
  Cluster.run ~until:(Time.sec 4) cluster;
  let stats = Client.total fleet in
  Alcotest.(check bool) "made progress through failures" true
    (stats.committed > 100);
  Array.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "site %d serving" (Site.id s))
        true (Site.serving s);
      Alcotest.(check int)
        (Printf.sprintf "site %d no stuck participants" (Site.id s))
        0 (Site.active_participants s))
    (Cluster.sites cluster);
  (* No forks ever (available copies is fork-prone only under
     partitions, which this soak does not inject). *)
  Alcotest.(check bool) "replicas converged" true (Cluster.converged cluster)


(* --- distributed deadlock probes ---------------------------------------- *)

(* Build a deadlock no single site can see locally: reads lock only the
   local copy (ROWA), writes lock every copy, and the two wait edges land
   on different sites. *)
let cross_site_deadlock ~probe_deadlocks ~seed =
  let config =
    { (Config.default ~sites:3 ()) with probe_deadlocks; seed }
  in
  let cluster = Cluster.create config in
  let engine = Cluster.engine cluster in
  let s0 = Cluster.site cluster 0 and s1 = Cluster.site cluster 1 in
  check_committed
    (run_one cluster ~site:2 ~ops:[ Mix.Write ("k1", "0"); Mix.Write ("k2", "0") ]);
  let started = Cluster.now cluster in
  let resolved = ref [] in
  let finish name o =
    resolved := (name, o, Time.sub (Cluster.now cluster) started) :: !resolved
  in
  let drive name site first_read then_write =
    match Site.begin_txn site with
    | None -> Alcotest.fail "begin failed"
    | Some txn ->
        Site.txn_read site txn ~key:first_read ~k:(function
          | Error r -> finish name (Site.Aborted r)
          | Ok _ ->
              (* Wait until both transactions hold their read locks before
                 issuing the conflicting writes. *)
              ignore
                (Engine.schedule_after engine (Time.ms 2) (fun () ->
                     Site.txn_write site txn ~key:then_write ~value:name
                       ~k:(function
                       | Error r -> finish name (Site.Aborted r)
                       | Ok () ->
                           Site.txn_commit site txn ~k:(fun o -> finish name o)))))
  in
  drive "A" s0 "k2" "k1";
  drive "B" s1 "k1" "k2";
  run_for cluster (Time.sec 1);
  (cluster, !resolved)

let test_probes_resolve_distributed_deadlock () =
  let cluster, resolved = cross_site_deadlock ~probe_deadlocks:true ~seed:7 in
  Alcotest.(check int) "both resolved" 2 (List.length resolved);
  let aborts =
    List.filter (fun (_, o, _) -> o <> Site.Committed) resolved
  in
  Alcotest.(check bool) "at least one aborted" true (List.length aborts >= 1);
  (* Probes detect the cycle in a few message delays — far below the
     20ms lock-wait timeout backstop. *)
  List.iter
    (fun (name, _, at) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s resolved before the timeout (%s)" name
           (Format.asprintf "%a" Time.pp at))
        true
        Time.(at < Time.ms 15))
    resolved;
  Alcotest.(check bool) "probe deadlock counted" true
    (Rt_metrics.Counter.get (Cluster.counters cluster) "probe_deadlocks" >= 1)

let test_timeout_resolves_distributed_deadlock_slowly () =
  let _, resolved = cross_site_deadlock ~probe_deadlocks:false ~seed:7 in
  Alcotest.(check int) "both resolved" 2 (List.length resolved);
  (* Without probes the cycle stands until the lock-wait timeout. *)
  Alcotest.(check bool) "some resolution waited for the timeout" true
    (List.exists (fun (_, _, at) -> Time.(at >= Time.ms 15)) resolved)

(* --- storage faults ------------------------------------------------------ *)

(* Seeded regression for the torn-write path end to end: crash a
   participant exactly as its force-durable announcement fires with the
   whole device cycle torn away (torn=0).  Recovery's scan must detect
   the garbled tail, truncate it cleanly — never replay it — and the
   cluster must still pass the full audit. *)
let test_torn_tail_truncated_not_replayed () =
  let config =
    { (Config.default ~sites:3 ()) with
      seed = 11;
      group_commit_window = Time.us 20;
      batch_window = Some (Time.us 10);
      storage_faults = true }
  in
  let cluster = Cluster.create config in
  let injected =
    Failure.crash_at_point cluster ~torn:0 ~site:1 ~point:"wal:force-durable"
      ~occurrence:1 ~recover_after:(Time.ms 100) ()
  in
  let outcome = ref None in
  Cluster.submit cluster ~site:0
    ~ops:[ Mix.Write ("a", "1"); Mix.Write ("b", "2") ]
    ~k:(fun o -> outcome := Some o);
  run_for cluster (Time.sec 3);
  Alcotest.(check bool) "crash point reached" true (injected ());
  Alcotest.(check bool) "client outcome fired" true (!outcome <> None);
  let s1 = Cluster.site cluster 1 in
  Alcotest.(check bool) "torn tail detected and truncated" true
    (Site.torn_truncated s1 > 0);
  Alcotest.(check bool) "cycle accounted as torn" true
    ((Site.wal_stats s1).Rt_storage.Wal.st_torn >= 1);
  Alcotest.(check int) "no corruption declared (tail was above horizon)" 0
    (Site.corruption_detected s1);
  let vs =
    Audit.standard ~writes:[ ("a", "1"); ("b", "2") ] ~settle:(Time.sec 1)
      cluster
  in
  Alcotest.(check int) "audit clean" 0 (List.length vs)

(* Corruption below the durable horizon is data loss and must be loud:
   the audit's "storage" invariant has to fire, never a silent replay of
   a truncated log as if nothing happened. *)
let test_log_corruption_below_horizon_is_loud () =
  let config = { (Config.default ~sites:3 ()) with seed = 7 } in
  let cluster = Cluster.create config in
  check_committed (run_one cluster ~site:0 ~ops:[ Mix.Write ("x", "1") ]);
  let s1 = Cluster.site cluster 1 in
  Site.corrupt_wal_record s1 ~lsn:1;
  Cluster.crash_site cluster 1;
  run_for cluster (Time.ms 50);
  Cluster.recover_site cluster 1;
  run_for cluster (Time.ms 500);
  Alcotest.(check bool) "durable loss counted" true
    (Site.corruption_detected s1 > 0);
  let vs = Audit.standard ~settle:(Time.sec 1) cluster in
  Alcotest.(check bool) "storage violation reported loudly" true
    (List.exists (fun v -> v.Audit.inv = "storage") vs)

(* With storage faults on, a checkpoint truncates the log only up to the
   previous snapshot, so a corrupt latest snapshot falls back to it and
   replays the suffix without losing a committed write.  One site, so no
   peer can hide a loss through catch-up.  Four commits at
   checkpoint_every = 2 give two checkpoints after the bootstrap one. *)
let test_checkpoint_fallback_keeps_previous_suffix () =
  let config =
    { (Config.default ~sites:1 ()) with
      checkpoint_every = 2;
      storage_faults = true }
  in
  let cluster = Cluster.create config in
  let writes =
    List.init 4 (fun i ->
        (Printf.sprintf "k%d" (i + 1), string_of_int (i + 1)))
  in
  List.iter
    (fun (k, v) ->
      check_committed (run_one cluster ~site:0 ~ops:[ Mix.Write (k, v) ]))
    writes;
  let s0 = Cluster.site cluster 0 in
  let before = Kv.snapshot (Site.kv s0) in
  Site.corrupt_checkpoint s0;
  Cluster.crash_site cluster 0;
  run_for cluster (Time.ms 50);
  Cluster.recover_site cluster 0;
  run_for cluster (Time.ms 500);
  Alcotest.(check int) "fell back to the previous snapshot" 1
    (Site.checkpoint_fallbacks s0);
  Alcotest.(check bool) "store as before the crash" true
    (Kv.snapshot (Site.kv s0) = before);
  Alcotest.(check (list string)) "audit clean" []
    (List.map
       (Format.asprintf "%a" Audit.pp_violation)
       (Audit.standard ~writes ~settle:(Time.sec 1) cluster))

let () =
  Alcotest.run "core-failures"
    [
      ( "checkpoints",
        [
          Alcotest.test_case "truncation + recovery" `Quick
            test_checkpoint_truncates_and_recovers;
          Alcotest.test_case "pins released" `Quick
            test_checkpoint_pins_released;
        ] );
      ( "presumed-commit",
        [
          Alcotest.test_case "collecting record forces abort" `Quick
            test_prc_collecting_aborts_after_coordinator_crash;
        ] );
      ( "log-retention",
        [
          Alcotest.test_case "2PC-PrA coordinator keeps its decision" `Quick
            (coordinator_keeps_decision Rt_commit.Two_pc.Presumed_abort);
          Alcotest.test_case "2PC-PrN coordinator keeps its decision" `Quick
            (coordinator_keeps_decision Rt_commit.Two_pc.Presumed_nothing);
          Alcotest.test_case "2PC-PrC coordinator keeps Collecting" `Quick
            test_prc_coordinator_keeps_collecting;
        ] );
      ( "read-only",
        [
          Alcotest.test_case "cluster saves messages" `Quick
            test_read_only_optimization_cluster;
        ] );
      ( "probes",
        [
          Alcotest.test_case "probes resolve distributed deadlock fast" `Quick
            test_probes_resolve_distributed_deadlock;
          Alcotest.test_case "timeout backstop without probes" `Quick
            test_timeout_resolves_distributed_deadlock_slowly;
        ] );
      ( "storage-faults",
        [
          Alcotest.test_case "torn tail truncated, not replayed" `Quick
            test_torn_tail_truncated_not_replayed;
          Alcotest.test_case "sub-horizon corruption is loud" `Quick
            test_log_corruption_below_horizon_is_loud;
          Alcotest.test_case "checkpoint fallback keeps previous suffix"
            `Quick test_checkpoint_fallback_keeps_previous_suffix;
        ] );
      ( "partitions",
        [ QCheck_alcotest.to_alcotest prop_random_partitions_never_fork ] );
      ( "soak",
        [
          Alcotest.test_case "crash/recover soak" `Slow
            test_soak_crash_recover_available_copies;
        ] );
    ]
