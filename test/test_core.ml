(* Integration tests for the cluster: end-to-end replicated transactions,
   replica convergence, conflict handling, crash/recovery, partitions,
   and the cross-protocol matrix. *)

open Rt_sim
open Rt_core
module Mix = Rt_workload.Mix

let ops_w kvs = List.map (fun (k, v) -> Mix.Write (k, v)) kvs
let ops_r keys = List.map (fun k -> Mix.Read k) keys

let all_commit_protocols = List.map snd Rt_commit.Commit_protocol.all

let mk ?(sites = 3) ?(commit = Config.Two_phase Rt_commit.Two_pc.Presumed_abort)
    ?(rc = Rt_replica.Replica_control.rowa) ?(seed = 1) () =
  let config =
    { (Config.default ~sites ()) with commit_protocol = commit;
      replica_control = rc; seed }
  in
  Cluster.create config

let run_for cluster duration =
  Cluster.run ~until:(Time.add (Cluster.now cluster) duration) cluster

let run_one cluster ~site ~ops =
  let result = ref None in
  Cluster.submit cluster ~site ~ops ~k:(fun o -> result := Some o);
  run_for cluster (Time.sec 2);
  !result

let value_at cluster site key =
  Option.map
    (fun (i : Rt_storage.Kv.item) -> i.value)
    (Rt_storage.Kv.get (Site.kv (Cluster.site cluster site)) key)

let check_committed = function
  | Some Site.Committed -> ()
  | Some (Site.Aborted r) ->
      Alcotest.failf "expected commit, got abort (%s)"
        (Site.abort_reason_label r)
  | None -> Alcotest.fail "transaction never completed"

(* --- basic write path, per commit protocol --------------------------- *)

let test_commit_replicates commit () =
  let cluster = mk ~commit () in
  let outcome =
    run_one cluster ~site:0 ~ops:(ops_w [ ("x", "1"); ("y", "2") ])
  in
  check_committed outcome;
  for s = 0 to 2 do
    Alcotest.(check (option string))
      (Printf.sprintf "x at site %d" s)
      (Some "1") (value_at cluster s "x");
    Alcotest.(check (option string))
      (Printf.sprintf "y at site %d" s)
      (Some "2") (value_at cluster s "y")
  done;
  Alcotest.(check bool) "replicas converged" true (Cluster.converged cluster)

let test_read_after_write () =
  let cluster = mk () in
  check_committed (run_one cluster ~site:0 ~ops:(ops_w [ ("a", "v") ]));
  (* A later transaction from a different site reads and commits. *)
  check_committed (run_one cluster ~site:1 ~ops:(ops_r [ "a" ]));
  Alcotest.(check bool) "converged" true (Cluster.converged cluster)

let test_sequential_transactions () =
  let cluster = mk () in
  for i = 1 to 20 do
    check_committed
      (run_one cluster ~site:(i mod 3)
         ~ops:(ops_w [ ("k", string_of_int i) ]))
  done;
  Alcotest.(check (option string)) "final value" (Some "20")
    (value_at cluster 0 "k");
  Alcotest.(check bool) "converged" true (Cluster.converged cluster)

(* --- concurrency ------------------------------------------------------ *)

let test_concurrent_disjoint_commit () =
  let cluster = mk () in
  let outcomes = ref [] in
  for i = 0 to 9 do
    Cluster.submit cluster ~site:(i mod 3)
      ~ops:(ops_w [ (Printf.sprintf "key%d" i, "v") ])
      ~k:(fun o -> outcomes := o :: !outcomes)
  done;
  run_for cluster (Time.sec 2);
  Alcotest.(check int) "all completed" 10 (List.length !outcomes);
  List.iter (fun o -> check_committed (Some o)) !outcomes;
  Alcotest.(check bool) "converged" true (Cluster.converged cluster)

(* Staggered writers conflict through lock queues and all commit in
   turn. *)
let test_conflicting_writes_serialize () =
  let cluster = mk () in
  let engine = Cluster.engine cluster in
  let done_count = ref 0 and committed = ref 0 in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at engine (Time.ms (2 * i)) (fun () ->
           Cluster.submit cluster ~site:(i mod 3)
             ~ops:(ops_w [ ("hot", Printf.sprintf "w%d" i) ])
             ~k:(fun o ->
               incr done_count;
               match o with Site.Committed -> incr committed | _ -> ())))
  done;
  run_for cluster (Time.sec 5);
  Alcotest.(check int) "all completed" 5 !done_count;
  Alcotest.(check int) "all committed" 5 !committed;
  Alcotest.(check bool) "converged" true (Cluster.converged cluster);
  Alcotest.(check (option string)) "last writer wins" (Some "w4")
    (value_at cluster 0 "hot")

(* Simultaneous writers may all fall to distributed deadlock (resolved by
   lock-wait timeout, the classical discipline) — but the replicas must
   stay consistent and any installed value must belong to a committed
   writer. *)
let test_conflicting_writes_simultaneous () =
  let cluster = mk () in
  let done_count = ref 0 and winners = ref [] in
  for i = 0 to 4 do
    let v = Printf.sprintf "w%d" i in
    Cluster.submit cluster ~site:(i mod 3)
      ~ops:(ops_w [ ("hot", v) ])
      ~k:(fun o ->
        incr done_count;
        match o with Site.Committed -> winners := v :: !winners | _ -> ())
  done;
  run_for cluster (Time.sec 5);
  Alcotest.(check int) "all completed" 5 !done_count;
  Alcotest.(check bool) "converged" true (Cluster.converged cluster);
  match value_at cluster 0 "hot" with
  | Some v ->
      Alcotest.(check bool) "final value from a committed writer" true
        (List.mem v !winners)
  | None ->
      Alcotest.(check int) "no value means nobody committed" 0
        (List.length !winners)

(* --- crash / recovery ------------------------------------------------- *)

let test_crash_and_recover_available_copies () =
  let rc = Rt_replica.Replica_control.available_copies in
  let cluster = mk ~rc () in
  check_committed (run_one cluster ~site:0 ~ops:(ops_w [ ("a", "1") ]));
  Cluster.crash_site cluster 2;
  run_for cluster (Time.ms 2100);
  (* Writes continue with a site down under available copies. *)
  check_committed (run_one cluster ~site:0 ~ops:(ops_w [ ("a", "2") ]));
  (* The crashed site recovers, catches up, and converges. *)
  Cluster.recover_site cluster 2;
  run_for cluster (Time.ms 4500);
  Alcotest.(check bool) "site 2 serving again" true
    (Site.serving (Cluster.site cluster 2));
  Alcotest.(check (option string)) "caught up" (Some "2")
    (value_at cluster 2 "a")

let test_rowa_blocks_when_site_down () =
  let cluster = mk () in
  Cluster.crash_site cluster 2;
  run_for cluster (Time.ms 100);
  (* ROWA writes need every copy: expect an availability abort. *)
  match run_one cluster ~site:0 ~ops:(ops_w [ ("a", "1") ]) with
  | Some (Site.Aborted Site.Unavailable) -> ()
  | Some Site.Committed -> Alcotest.fail "ROWA write committed with a site down"
  | Some (Site.Aborted r) ->
      Alcotest.failf "unexpected abort reason %s" (Site.abort_reason_label r)
  | None -> Alcotest.fail "no outcome"

let test_quorum_tolerates_minority_crash () =
  let rc = Rt_replica.Replica_control.majority ~sites:5 in
  let commit = Config.Quorum_commit { commit_quorum = None; abort_quorum = None } in
  let cluster = mk ~sites:5 ~rc ~commit () in
  Cluster.crash_site cluster 3;
  Cluster.crash_site cluster 4;
  run_for cluster (Time.ms 100);
  check_committed (run_one cluster ~site:0 ~ops:(ops_w [ ("q", "1") ]))

let test_coordinator_crash_recovery_2pc () =
  (* Crash the coordinator shortly after submission; surviving
     participants must terminate consistently once it recovers. *)
  let cluster = mk ~seed:5 () in
  let outcome = ref None in
  Cluster.submit cluster ~site:0 ~ops:(ops_w [ ("a", "1"); ("b", "2") ])
    ~k:(fun o -> outcome := Some o);
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Time.us 400) (fun () ->
         Cluster.crash_site cluster 0));
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Time.ms 50) (fun () ->
         Cluster.recover_site cluster 0));
  run_for cluster (Time.sec 3);
  (* The client was told the site died. *)
  (match !outcome with
  | Some (Site.Aborted Site.Site_down) | Some (Site.Aborted Site.Protocol_abort)
  | Some Site.Committed ->
      ()
  | Some (Site.Aborted r) ->
      Alcotest.failf "unexpected reason %s" (Site.abort_reason_label r)
  | None -> Alcotest.fail "client never notified");
  (* No participant stays unresolved once everyone is back. *)
  Array.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "no stuck participants at %d" (Site.id s))
        0
        (Site.active_participants s))
    (Cluster.sites cluster);
  Alcotest.(check bool) "replicas agree" true (Cluster.converged cluster)

(* --- partitions -------------------------------------------------------- *)

let test_partition_quorum_majority_side_continues () =
  let rc = Rt_replica.Replica_control.majority ~sites:5 in
  let commit = Config.Quorum_commit { commit_quorum = None; abort_quorum = None } in
  let cluster = mk ~sites:5 ~rc ~commit ~seed:3 () in
  Cluster.partition cluster [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  (* Let failure detectors notice. *)
  run_for cluster (Time.ms 100);
  (* Majority side commits. *)
  check_committed (run_one cluster ~site:0 ~ops:(ops_w [ ("p", "maj") ]));
  (* Minority side cannot assemble a write quorum. *)
  (match run_one cluster ~site:3 ~ops:(ops_w [ ("p", "min") ]) with
  | Some (Site.Aborted Site.Unavailable) -> ()
  | Some Site.Committed -> Alcotest.fail "minority committed during partition"
  | Some (Site.Aborted _) | None -> ());
  Cluster.heal cluster;
  run_for cluster (Time.ms 400);
  (* After healing, a quorum read sees the majority write. *)
  check_committed (run_one cluster ~site:3 ~ops:(ops_r [ "p" ]))

let test_no_split_brain_under_partition () =
  (* Under quorum replication + quorum commit, concurrent writes on both
     sides of a partition can never both commit. *)
  let rc = Rt_replica.Replica_control.majority ~sites:5 in
  let commit = Config.Quorum_commit { commit_quorum = None; abort_quorum = None } in
  let cluster = mk ~sites:5 ~rc ~commit ~seed:11 () in
  check_committed (run_one cluster ~site:0 ~ops:(ops_w [ ("s", "0") ]));
  Cluster.partition cluster [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  run_for cluster (Time.ms 100);
  let minority = ref None and majority = ref None in
  Cluster.submit cluster ~site:0 ~ops:(ops_w [ ("s", "minority") ]) ~k:(fun o ->
      minority := Some o);
  Cluster.submit cluster ~site:2 ~ops:(ops_w [ ("s", "majority") ]) ~k:(fun o ->
      majority := Some o);
  run_for cluster (Time.sec 2);
  let committed o = o = Some Site.Committed in
  Alcotest.(check bool) "not both committed" false
    (committed !minority && committed !majority)

(* --- audit: convergence per replica control --------------------------- *)

let audit_lines cluster =
  List.map
    (Format.asprintf "%a" Audit.pp_violation)
    (Audit.standard ~settle:(Time.sec 1) cluster)

(* Quorum writes reach a write quorum, not every copy, so a healthy
   majority-quorum cluster keeps stale copies: the audit passes it. *)
let test_audit_quorum_stale_copies_pass () =
  let cluster = mk ~rc:(Rt_replica.Replica_control.majority ~sites:3) () in
  for i = 1 to 24 do
    check_committed
      (run_one cluster ~site:(i mod 3)
         ~ops:(ops_w [ (Printf.sprintf "k%d" (i mod 5), string_of_int i) ]))
  done;
  Alcotest.(check bool) "copies differ" false (Cluster.converged cluster);
  Alcotest.(check (list string)) "audit clean" [] (audit_lines cluster)

(* Available copies promises every up copy the same contents, so a copy
   a partition left behind is still reported. *)
let test_audit_rowa_a_divergence_reported () =
  let cluster = mk ~rc:Rt_replica.Replica_control.available_copies () in
  Cluster.partition cluster [ [ 0 ]; [ 1; 2 ] ];
  run_for cluster (Time.ms 2100);
  check_committed (run_one cluster ~site:1 ~ops:(ops_w [ ("a", "1") ]));
  Cluster.heal cluster;
  run_for cluster (Time.ms 500);
  Alcotest.(check (option string)) "site 0 left behind" None
    (value_at cluster 0 "a");
  Alcotest.(check bool) "divergence reported" true
    (List.mem "durability: replica stores diverge within a shard"
       (audit_lines cluster))

(* --- protocol matrix under load ---------------------------------------- *)

let test_matrix_protocol_load commit rc_name rc () =
  let config =
    { (Config.default ~sites:3 ()) with
      commit_protocol = commit;
      replica_control = rc;
      seed = 17 }
  in
  let cluster = Cluster.create config in
  let mix = { Mix.default with keys = 50; ops_per_txn = 2 } in
  Cluster.populate cluster mix;
  let clients = Client.start_fleet ~cluster ~clients:6 ~mix () in
  run_for cluster (Time.ms 500);
  List.iter Client.stop clients;
  run_for cluster (Time.ms 700);
  let stats = Client.total clients in
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s makes progress"
       (Rt_commit.Commit_protocol.name commit)
       rc_name)
    true
    (stats.committed > 10);
  if rc_name <> "quorum" then
    Alcotest.(check bool) "replicas converged" true (Cluster.converged cluster)

let test_timestamp_mode_load () =
  (* The distributed timestamp-ordering scheme: progress, convergence,
     and the lost-update check under contention. *)
  let config =
    { (Config.default ~sites:3 ()) with
      concurrency = Config.Timestamp; seed = 19 }
  in
  let cluster = Cluster.create config in
  let mix = { Mix.default with keys = 40; ops_per_txn = 2; theta = 0.8 } in
  Cluster.populate cluster mix;
  let clients = Client.start_fleet ~cluster ~clients:6 ~mix () in
  run_for cluster (Time.ms 500);
  List.iter Client.stop clients;
  run_for cluster (Time.ms 200);
  let stats = Client.total clients in
  Alcotest.(check bool) "TO makes progress" true (stats.committed > 50);
  Alcotest.(check bool) "replicas converged" true (Cluster.converged cluster)

let test_timestamp_rejects_stale_write () =
  (* A younger transaction reads; an older one then tries to write the
     same key: basic TO rejects the write (rts rule). *)
  let config =
    { (Config.default ~sites:3 ()) with
      concurrency = Config.Timestamp; seed = 23 }
  in
  let cluster = Cluster.create config in
  let engine = Cluster.engine cluster in
  check_committed (run_one cluster ~site:0 ~ops:(ops_w [ ("k", "0") ]));
  let s0 = Cluster.site cluster 0 in
  (* Old transaction begins (captures its timestamp). *)
  let old_txn = Option.get (Site.begin_txn s0) in
  (* A newer transaction reads k and commits. *)
  let newer_done = ref false in
  ignore
    (Engine.schedule_after engine (Time.ms 1) (fun () ->
         Cluster.submit cluster ~site:1 ~ops:(ops_r [ "k" ]) ~k:(fun o ->
             newer_done := o = Site.Committed)));
  run_for cluster (Time.ms 100);
  Alcotest.(check bool) "newer read committed" true !newer_done;
  (* The older transaction's write must now be rejected. *)
  let result = ref None in
  Site.txn_write s0 old_txn ~key:"k" ~value:"stale" ~k:(fun r ->
      result := Some r);
  run_for cluster (Time.ms 100);
  match !result with
  | Some (Error Site.Order_conflict) -> ()
  | Some (Error r) ->
      Alcotest.failf "unexpected refusal %s" (Site.abort_reason_label r)
  | Some (Ok ()) -> Alcotest.fail "stale write accepted"
  | None -> Alcotest.fail "write never answered"

let test_read_only_duplicate_read concurrency () =
  (* A participant that voted read-only has released and forgotten the
     transaction (resolved, but not decided).  A duplicate read arriving
     afterwards must be refused under either scheme: admitting it would
     take a lock (or a read stamp) that nothing ever releases. *)
  let config =
    { (Config.default ~sites:2 ()) with
      concurrency; read_only_optimization = true }
  in
  let engine = Engine.create ~seed:0 () in
  let sent = ref [] in
  let site =
    Site.create ~engine ~id:1 ~config
      ~send:(fun ~dst:_ (msg : Msg.t) ->
        sent := Format.asprintf "%a" Msg.pp msg :: !sent)
      ~counters:(Rt_metrics.Counter.create ())
  in
  let txn = Rt_types.Ids.Txn_id.make ~origin:0 ~seq:1 ~start_ts:Time.zero in
  let deliver_at ms payload =
    ignore
      (Engine.schedule_at engine (Time.ms ms) (fun () ->
           Site.receive site ~src:0 (Msg.txn_msg txn payload)))
  in
  let vote_req =
    Msg.Commit_msg
      {
        pmsg = Rt_commit.Protocol.Vote_req;
        prepare =
          Some { Msg.writes = []; participants = [ 0; 1 ]; presumed_down = [] };
      }
  in
  deliver_at 1 (Msg.Read_req { key = "k" });
  deliver_at 2 vote_req;
  deliver_at 3 (Msg.Read_req { key = "k" });
  Engine.run ~until:(Time.ms 4) engine;
  let render payload = Format.asprintf "%a" Msg.pp (Msg.txn_msg txn payload) in
  Alcotest.(check (list string))
    "read, read-only vote, duplicate read refused"
    [
      render (Msg.Read_reply { key = "k"; result = Ok (None, 0) });
      render
        (Msg.Commit_msg
           { pmsg = Rt_commit.Protocol.Vote_read_only; prepare = None });
      render (Msg.Read_reply { key = "k"; result = Error Msg.R_doomed });
    ]
    (List.rev !sent)

let matrix_cases =
  List.concat_map
    (fun commit ->
      [
        Alcotest.test_case
          (Printf.sprintf "%s over ROWA under load"
             (Rt_commit.Commit_protocol.name commit))
          `Quick
          (test_matrix_protocol_load commit "rowa"
             Rt_replica.Replica_control.rowa);
        Alcotest.test_case
          (Printf.sprintf "%s over majority quorum under load"
             (Rt_commit.Commit_protocol.name commit))
          `Quick
          (test_matrix_protocol_load commit "quorum"
             (Rt_replica.Replica_control.majority ~sites:3));
      ])
    all_commit_protocols

(* Regression: with independent per-link latencies, another
   participant's paxos phase-2a vote can reach a site before that site's
   own Vote_req.  Dropping it silently starves the instance of its F+1
   acceptor quorum and costs the ballot-0 leader a full vote-collect
   timeout round (seen as ~50ms p99 spikes in T2 at N >= 5); the site
   now stashes the early message and replays it at machine creation.
   Three slowed Vote_req links force the race deterministically: site
   1's vote reaches sites 2-4 long before their own requests do, and
   instance 1 can only assemble 3-of-5 acceptors from the stash. *)
let test_paxos_early_vote_stashed_not_dropped () =
  let cluster = mk ~sites:5 ~commit:(Config.Paxos_commit { f = None }) () in
  let net = Cluster.net cluster in
  let slow = Rt_net.Net.reliable_link (Rt_net.Latency.Fixed (Time.ms 3)) in
  List.iter
    (fun dst -> Rt_net.Net.set_link net ~src:0 ~dst slow)
    [ 2; 3; 4 ];
  let done_at = ref None in
  Cluster.submit cluster ~site:0
    ~ops:(ops_w [ ("x", "1") ])
    ~k:(fun o -> done_at := Some (o, Cluster.now cluster));
  run_for cluster (Time.sec 2);
  match !done_at with
  | None -> Alcotest.fail "transaction never completed"
  | Some (o, finished) ->
      check_committed (Some o);
      (* The slow links bound the floor at ~6ms (request + decision);
         a dropped early vote would add a >=50ms vote-collect timeout
         round before the commit could assemble its quorums. *)
      Alcotest.(check bool)
        (Printf.sprintf "commit without a timeout round (finished %.1fms)"
           (Time.to_float_ms finished))
        true
        Time.(finished < ms 20)

(* The same forced race with the early-vote stash capped at one entry:
   overflow drops the oldest stashed vote, so some acceptors assemble
   their quorum only after the leader's vote-collect timeout
   retransmits.  The cap bounds memory and may cost latency — it must
   never cost safety or liveness. *)
let test_px_early_stash_cap_overflow_still_commits () =
  let config =
    { (Config.default ~sites:5 ()) with
      commit_protocol = Config.Paxos_commit { f = None };
      px_early_stash_cap = 1;
      seed = 1 }
  in
  let cluster = Cluster.create config in
  let net = Cluster.net cluster in
  let slow = Rt_net.Net.reliable_link (Rt_net.Latency.Fixed (Time.ms 3)) in
  List.iter
    (fun dst -> Rt_net.Net.set_link net ~src:0 ~dst slow)
    [ 2; 3; 4 ];
  let outcome = run_one cluster ~site:0 ~ops:(ops_w [ ("x", "1") ]) in
  check_committed outcome;
  for s = 0 to 4 do
    Alcotest.(check (option string))
      (Printf.sprintf "replicated at %d despite dropped stash entries" s)
      (Some "1") (value_at cluster s "x")
  done

let test_px_early_stash_cap_validated () =
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument "Config: px_early_stash_cap must be positive") (fun () ->
      Config.validate
        { (Config.default ~sites:3 ()) with px_early_stash_cap = 0 })

(* [Txn_id.hash] hashes the record directly; it must stay the hash of
   the tuple [(origin, seq, start_ts)], or every [Txn_map] silently
   changes its bucket and iteration order (a field reorder would). *)
let test_txn_hash_is_tuple_hash () =
  for origin = 0 to 20 do
    for seq = 0 to 200 do
      List.iter
        (fun start_ts ->
          let t = Rt_types.Ids.Txn_id.make ~origin ~seq ~start_ts in
          if Rt_types.Ids.Txn_id.hash t <> Hashtbl.hash (origin, seq, start_ts)
          then
            Alcotest.failf "hash differs at origin %d seq %d start_ts %d" origin
              seq start_ts)
        [ 0; 1; 999; Time.ms 3; Time.sec 2 + 17; Time.sec 3600 ]
    done
  done

let commit_cases =
  List.map
    (fun commit ->
      Alcotest.test_case
        (Printf.sprintf "%s commit replicates"
           (Rt_commit.Commit_protocol.name commit))
        `Quick
        (test_commit_replicates commit))
    all_commit_protocols

let () =
  Alcotest.run "core"
    [
      ("commit", commit_cases);
      ( "basics",
        [
          Alcotest.test_case "paxos early vote stashed, not dropped" `Quick
            test_paxos_early_vote_stashed_not_dropped;
          Alcotest.test_case "early-vote stash cap overflow still commits"
            `Quick test_px_early_stash_cap_overflow_still_commits;
          Alcotest.test_case "early-vote stash cap validated" `Quick
            test_px_early_stash_cap_validated;
          Alcotest.test_case "read after write" `Quick test_read_after_write;
          Alcotest.test_case "sequential transactions" `Quick
            test_sequential_transactions;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "disjoint concurrent commits" `Quick
            test_concurrent_disjoint_commit;
          Alcotest.test_case "conflicting writes serialize" `Quick
            test_conflicting_writes_serialize;
          Alcotest.test_case "simultaneous conflicting writes stay consistent"
            `Quick test_conflicting_writes_simultaneous;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash + recover (available copies)" `Quick
            test_crash_and_recover_available_copies;
          Alcotest.test_case "ROWA unavailable when site down" `Quick
            test_rowa_blocks_when_site_down;
          Alcotest.test_case "quorum tolerates minority crash" `Quick
            test_quorum_tolerates_minority_crash;
          Alcotest.test_case "coordinator crash + recovery" `Quick
            test_coordinator_crash_recovery_2pc;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "majority side continues" `Quick
            test_partition_quorum_majority_side_continues;
          Alcotest.test_case "no split brain" `Quick
            test_no_split_brain_under_partition;
        ] );
      ( "audit",
        [
          Alcotest.test_case "quorum stale copies pass" `Quick
            test_audit_quorum_stale_copies_pass;
          Alcotest.test_case "ROWA-A divergence reported" `Quick
            test_audit_rowa_a_divergence_reported;
        ] );
      ("matrix", matrix_cases);
      ( "ids",
        [
          Alcotest.test_case "txn hash is the tuple hash" `Quick
            test_txn_hash_is_tuple_hash;
        ] );
      ( "timestamp-ordering",
        [
          Alcotest.test_case "TO under load" `Quick test_timestamp_mode_load;
          Alcotest.test_case "TO rejects stale write" `Quick
            test_timestamp_rejects_stale_write;
          Alcotest.test_case "read-only duplicate read refused (2PL)" `Quick
            (test_read_only_duplicate_read Config.Locking);
          Alcotest.test_case "read-only duplicate read refused (TO)" `Quick
            (test_read_only_duplicate_read Config.Timestamp);
        ] );
    ]
