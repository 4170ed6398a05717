(* Soak/torture runner: one nemesis campaign cell.  A fleet of clients
   drives the cluster for 2 s while every site crashes and recovers at
   random (and, optionally, the cluster splits in halves for the middle
   third); then the campaign heals, drains and judges the run by the
   shared battery, [Audit.standard], under the cell's declared safety
   envelope.

     dune exec bin/soak.exe -- --help                        *)

open Cmdliner
open Rt_core
module Time = Rt_sim.Time
module Commit_protocol = Rt_commit.Commit_protocol
module Campaign = Rt_nemesis.Campaign

let clients = 8
let duration_ms = 2000
let mttf_ms = 500
let mttr_ms = 100
let keys = 200

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

let run sites protocol rc cc partition probes seed =
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
      let scenario =
        Rt_nemesis.Scenario.random_crashes ~mttf:(Time.ms mttf_ms)
          ~mttr:(Time.ms mttr_ms) ~partition
      in
      let r, cluster =
        Campaign.run_one ~seed ~sites ~clients ~duration:(Time.ms duration_ms)
          ~keys ~rc:replica_control
          ~tune:(fun c -> { c with concurrency; probe_deadlocks = probes })
          ~scenario
          ~protocol:(Commit_protocol.name commit_protocol, commit_protocol)
          ~placement:("full", None) ()
      in
      let c = Cluster.counters cluster in
      let lat = Cluster.latencies cluster in
      let net = Cluster.net_stats cluster in
      Printf.printf
        "configuration: %d sites, %s over %s, %s CC, %d clients, %dms, MTTF \
         %dms%s\n"
        sites
        (Commit_protocol.name commit_protocol)
        (Rt_replica.Replica_control.name replica_control)
        (Config.concurrency_name concurrency)
        clients duration_ms mttf_ms
        (if partition then ", partition episode" else "");
      Printf.printf "transactions: %d committed, %d aborted (%.1f%% success)\n"
        r.r_committed r.r_aborted
        (if r.r_committed + r.r_aborted = 0 then 0.
         else
           100.
           *. float_of_int r.r_committed
           /. float_of_int (r.r_committed + r.r_aborted));
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
      Printf.printf "drain: %s\n"
        (Format.asprintf "%a" Campaign.pp_drain r.r_drain);
      print_string (Campaign.render_envelope r);
      (* A failed audit exits 1; cmdliner keeps 124 for usage errors. *)
      if r.r_violations = [] then begin
        Printf.printf "audit: OK\n";
        `Ok 0
      end
      else begin
        List.iter
          (fun f ->
            Printf.printf "audit FAILURE: %s\n"
              (Format.asprintf "%a" Audit.pp_violation f))
          r.r_violations;
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
  let partition =
    Arg.(
      value & flag
      & info [ "partition" ]
          ~doc:"Inject a network partition for the middle third of the run.")
  in
  let probes =
    Arg.(
      value & flag
      & info [ "probes" ] ~doc:"Enable CMH distributed deadlock probes.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let doc = "Torture a replicated-transaction cluster and audit invariants" in
  let man =
    [
      `S Manpage.s_description;
      `P
        (Printf.sprintf
           "One nemesis campaign cell (docs/NEMESIS.md): %d closed-loop \
            clients on a %d-key mix run for %d ms of simulated time while \
            every site crashes with MTTF %d ms and recovers with MTTR %d \
            ms.  Then every fault heals, the cluster drains until \
            hygiene-clean (5 s cap), and the shared audit runs with a 1 s \
            quiescence window.  Available copies and primary copy (and \
            basic 3PC under $(b,--partition)) run outside the declared \
            safety envelope, which the run prints with what it set aside."
           clients keys duration_ms mttf_ms mttr_ms);
    ]
  in
  Cmd.v
    (Cmd.info "soak" ~version:"1.0" ~doc ~man ~exits)
    Term.(
      ret
        (const run $ sites $ protocol $ rc $ cc $ partition $ probes $ seed))

let () = exit (Cmd.eval' cmd)
