(* Soak/torture runner: drive a configurable cluster through a workload
   with random crashes (and optionally a partition episode), then judge
   it by the shared battery, [Audit.standard], with one declared
   exception: after injected faults, replica divergence is a note.

     dune exec bin/soak.exe -- --help                        *)

open Cmdliner
open Rt_core
module Mix = Rt_workload.Mix
module Time = Rt_sim.Time
module Commit_protocol = Rt_commit.Commit_protocol

let commit_protocol_of_string s =
  match Commit_protocol.of_name (if s = "2pc" then "2pc-pra" else s) with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown commit protocol %S" s)

let rc_of_string ~sites s =
  match Rt_replica.Replica_control.of_name ~sites s with
  | Some rc -> Ok rc
  | None -> Error (Printf.sprintf "unknown replica control %S" s)

let cc_of_string = function
  | "2pl" | "locking" -> Ok Config.Locking
  | "to" | "timestamp" -> Ok Config.Timestamp
  | s -> Error (Printf.sprintf "unknown concurrency control %S" s)

let run sites protocol rc cc clients duration_ms mttf_ms mttr_ms partition
    read_fraction theta keys probes seed =
  let ( let* ) = Result.bind in
  let result =
    let* commit_protocol = commit_protocol_of_string protocol in
    let* replica_control = rc_of_string ~sites rc in
    let* concurrency = cc_of_string cc in
    Ok (commit_protocol, replica_control, concurrency)
  in
  match result with
  | Error e -> `Error (false, e)
  | Ok (commit_protocol, replica_control, concurrency) ->
      let config =
        { (Config.default ~sites ()) with
          commit_protocol;
          replica_control;
          concurrency;
          probe_deadlocks = probes;
          checkpoint_every = 50;
          seed }
      in
      let cluster = Cluster.create config in
      let mix =
        { Mix.default with keys; read_fraction; theta; ops_per_txn = 3 }
      in
      Cluster.populate cluster mix;
      let fleet = Client.start_fleet ~cluster ~clients ~mix () in
      let duration = Time.ms duration_ms in
      if mttf_ms > 0 then
        Failure.schedule cluster
          (Failure.random_crashes cluster ~mttf:(Time.ms mttf_ms)
             ~mttr:(Time.ms mttr_ms) ~until:duration);
      if partition then begin
        let mid = sites / 2 in
        let left = List.init mid (fun i -> i) in
        let right = List.init (sites - mid) (fun i -> mid + i) in
        Failure.schedule cluster
          [
            (duration / 3, Failure.Partition [ left; right ]);
            (2 * duration / 3, Failure.Heal_partition);
          ]
      end;
      Cluster.run ~until:duration cluster;
      List.iter Client.stop fleet;
      (* Recover any still-down site and drain. *)
      Array.iteri
        (fun i s -> if not (Site.is_up s) then Cluster.recover_site cluster i)
        (Cluster.sites cluster);
      Cluster.run ~until:(Time.add duration (Time.sec 2)) cluster;

      (* ---- report ---- *)
      let stats = Client.total fleet in
      let c = Cluster.counters cluster in
      let lat = Cluster.latencies cluster in
      let net = Cluster.net_stats cluster in
      Printf.printf
        "configuration: %d sites, %s over %s, %s CC, %d clients, %dms%s%s\n"
        sites
        (Commit_protocol.name commit_protocol)
        (Rt_replica.Replica_control.name replica_control)
        (Config.concurrency_name concurrency)
        clients duration_ms
        (if mttf_ms > 0 then Printf.sprintf ", MTTF %dms" mttf_ms else "")
        (if partition then ", partition episode" else "");
      Printf.printf "transactions: %d committed, %d aborted (%.1f%% success)\n"
        stats.committed stats.aborted
        (if stats.committed + stats.aborted = 0 then 0.
         else
           100.
           *. float_of_int stats.committed
           /. float_of_int (stats.committed + stats.aborted));
      if Rt_metrics.Sample.count lat > 0 then
        Printf.printf "latency: mean %.2fms  p50 %.2fms  p99 %.2fms\n"
          (Rt_metrics.Sample.mean lat *. 1e3)
          (Rt_metrics.Sample.percentile lat 50. *. 1e3)
          (Rt_metrics.Sample.percentile lat 99. *. 1e3);
      Printf.printf
        "network: %d sent, %d delivered, %d dropped (%d link, %d partition)\n"
        net.sent net.delivered
        (Rt_net.Net.Stats.dropped net)
        net.dropped_link net.dropped_partition;
      List.iter
        (fun name ->
          let v = Rt_metrics.Counter.get c name in
          if v > 0 then Printf.printf "%-22s %d\n" name v)
        [
          "deadlock_victims"; "lock_timeouts"; "probe_deadlocks"; "crashes";
          "recoveries"; "catchups"; "checkpoints"; "blocked_reports";
          "readonly_releases"; "validation_vetoes"; "order_conflicts";
        ];

      (* ---- audit (shared battery from Rt_core.Audit) ---- *)
      let failures = Audit.standard ~settle:(Time.sec 1) cluster in
      let diverged, hard =
        if mttf_ms > 0 || partition then
          (* The one declared exception.  ROWA-A and primary copy
             assume accurate failure detection; detector lag under crash
             churn acts like a brief partition, so divergent copies
             after injected faults are the documented behaviour, not a
             bug (see EXPERIMENTS.md). *)
          let convergence = Audit.convergence cluster in
          List.partition (fun f -> List.mem f convergence) failures
        else ([], failures)
      in
      if diverged <> [] then
        Printf.printf
          "note: replicas not fully converged (expected for \
           ROWA-A-style protocols under failures/partitions)\n";
      (* A failed audit exits 1; cmdliner keeps 124 for usage errors. *)
      if hard = [] then begin
        Printf.printf "audit: OK\n";
        `Ok 0
      end
      else begin
        List.iter
          (fun f ->
            Printf.printf "audit FAILURE: %s\n"
              (Format.asprintf "%a" Audit.pp_violation f))
          hard;
        `Ok 1
      end

let cmd =
  let exits = Cmd.Exit.info 1 ~doc:"on a failed audit." :: Cmd.Exit.defaults in
  let sites =
    Arg.(value & opt int 3 & info [ "sites" ] ~doc:"Number of replica sites.")
  in
  let protocol =
    Arg.(
      value & opt string "2pc-pra"
      & info [ "protocol" ]
          ~doc:"Commit protocol: 2pc-prn, 2pc-pra, 2pc-prc, 3pc, qc, paxos.")
  in
  let rc =
    Arg.(
      value & opt string "rowa-a"
      & info [ "rc" ]
          ~doc:"Replica control: rowa, rowa-a, quorum, primary.")
  in
  let cc =
    Arg.(
      value & opt string "2pl"
      & info [ "cc" ] ~doc:"Concurrency control at the replicas: 2pl, to.")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Closed-loop clients.")
  in
  let duration =
    Arg.(
      value & opt int 2000
      & info [ "duration-ms" ] ~doc:"Workload duration (simulated ms).")
  in
  let mttf =
    Arg.(
      value & opt int 500
      & info [ "mttf-ms" ]
          ~doc:"Mean time to failure per site, simulated ms (0 = no crashes).")
  in
  let mttr =
    Arg.(
      value & opt int 100
      & info [ "mttr-ms" ] ~doc:"Mean time to repair, simulated ms.")
  in
  let partition =
    Arg.(
      value & flag
      & info [ "partition" ]
          ~doc:"Inject a network partition for the middle third of the run.")
  in
  let read_fraction =
    Arg.(value & opt float 0.5 & info [ "read-fraction" ] ~doc:"Reads per op.")
  in
  let theta =
    Arg.(value & opt float 0.8 & info [ "theta" ] ~doc:"Zipf skew.")
  in
  let keys = Arg.(value & opt int 200 & info [ "keys" ] ~doc:"Keyspace size.") in
  let probes =
    Arg.(
      value & flag
      & info [ "probes" ] ~doc:"Enable CMH distributed deadlock probes.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let doc = "Torture a replicated-transaction cluster and audit invariants" in
  Cmd.v
    (Cmd.info "soak" ~version:"1.0" ~doc ~exits)
    Term.(
      ret
        (const run $ sites $ protocol $ rc $ cc $ clients $ duration $ mttf
       $ mttr $ partition $ read_fraction $ theta $ keys $ probes $ seed))

let () = exit (Cmd.eval' cmd)
