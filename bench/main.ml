(* Benchmark harness.

   Running this executable regenerates every table/figure of the
   reconstructed evaluation (the simulation results the paper-style
   write-up reports), then runs a Bechamel micro-benchmark suite with one
   measurement per experiment, timing the core code path that experiment
   exercises (wall-clock cost of the simulator itself, not simulated
   time). *)

open Bechamel
open Toolkit
module Experiment = Rt_core.Experiment
module Config = Rt_core.Config
module Cluster = Rt_core.Cluster
module Client = Rt_core.Client
module Site = Rt_core.Site
module Mix = Rt_workload.Mix
module Sandbox = Rt_commit.Sandbox
module Two_pc = Rt_commit.Two_pc
module Placement = Rt_placement.Placement
module Shard_map = Rt_placement.Shard_map
module Sample = Rt_metrics.Sample
module Counter = Rt_metrics.Counter
module T = Rt_sim.Time

(* ------------------------------------------------------------------ *)
(* Experiment tables                                                    *)
(* ------------------------------------------------------------------ *)

let print_tables () =
  List.iter
    (fun (spec : Experiment.spec) ->
      Printf.printf "== %s: %s ==\n\n" spec.id spec.title;
      (* rt_lint: allow no-wall-clock -- host-side progress report, outside any simulation *)
      let t0 = Unix.gettimeofday () in
      Rt_metrics.Table.print (spec.table ());
      (* rt_lint: allow no-wall-clock -- host-side progress report, outside any simulation *)
      Printf.printf "\n(generated in %.1fs)\n\n%!" (Unix.gettimeofday () -. t0))
    Experiment.all

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the per-experiment core code path         *)
(* ------------------------------------------------------------------ *)

let one_sandbox_commit proto () =
  let o = Sandbox.run_fifo ~proto ~sites:3 ~votes:[| true; true; true |] () in
  assert o.agreement

let one_cluster_txn rc () =
  let config =
    { (Config.default ~sites:3 ()) with replica_control = rc; seed = 1 }
  in
  let cluster = Cluster.create config in
  let ok = ref false in
  Cluster.submit cluster ~site:0
    ~ops:[ Mix.Write ("k", "v") ]
    ~k:(fun o -> ok := o = Site.Committed);
  Cluster.run ~until:(T.ms 100) cluster;
  assert !ok

let availability_sweep () =
  let v = Rt_quorum.Votes.majority ~sites:7 in
  let acc = ref 0. in
  for p10 = 1 to 9 do
    acc :=
      !acc
      +. Rt_quorum.Availability.txn_availability v ~p:(float_of_int p10 /. 10.)
  done;
  !acc

let recovery_1k =
  let log =
    List.concat
      (List.init 334 (fun i ->
           let t =
             Rt_types.Ids.Txn_id.make ~origin:0 ~seq:i ~start_ts:(T.us i)
           in
           [
             Rt_storage.Log_record.Update
               { txn = t; key = Printf.sprintf "k%d" (i mod 100); value = "v";
                 version = i; undo = None };
             Rt_storage.Log_record.Prepared { txn = t; participants = [ 0 ] };
             Rt_storage.Log_record.Commit t;
           ]))
  in
  fun () ->
    let kv = Rt_storage.Kv.create () in
    (Rt_storage.Recovery.recover kv log).redone

let one_local_txn scheme () =
  let r =
    Rt_cc.Workbench.run ~seed:1 ~scheme ~clients:1
      ~mix:{ Mix.default with keys = 16; ops_per_txn = 4 }
      ~duration:(T.us 200) ()
  in
  r.committed

let engine_churn () =
  let e = Rt_sim.Engine.create () in
  for i = 1 to 500 do
    ignore (Rt_sim.Engine.schedule_after e (T.us i) (fun () -> ()))
  done;
  Rt_sim.Engine.run e;
  Rt_sim.Engine.processed e

let quorum_planning () =
  let rc = Rt_replica.Replica_control.majority ~sites:7 in
  let replicas = List.init 7 (fun i -> i) in
  let plans = ref 0 in
  for self = 0 to 6 do
    (match
       Rt_replica.Replica_control.read_plan rc ~self ~up:(fun _ -> true)
         ~replicas
     with
    | Some _ -> incr plans
    | None -> ());
    match
      Rt_replica.Replica_control.write_plan rc ~self ~up:(fun s -> s <> 0)
        ~replicas
    with
    | Some _ -> incr plans
    | None -> ()
  done;
  !plans

let sandbox_crash_run () =
  let o =
    Sandbox.run ~seed:3 ~crashes:[ (0, 10) ] ~max_steps:1500
      ~proto:Config.Three_phase ~sites:3 ~votes:[| true; true; true |] ()
  in
  assert o.agreement

let min_read_sets () =
  let v =
    Rt_quorum.Votes.make ~votes:[| 3; 1; 1; 1; 1 |] ~read_quorum:3
      ~write_quorum:5
  in
  let n = ref 0 in
  for down = 0 to 4 do
    match Rt_quorum.Votes.min_read_set v ~up:(fun s -> s <> down) with
    | Some set -> n := !n + List.length set
    | None -> ()
  done;
  !n

let lock_cycle () =
  let t = Rt_lock.Lock_table.create () in
  let txn i = Rt_types.Ids.Txn_id.make ~origin:0 ~seq:i ~start_ts:(T.us i) in
  for i = 1 to 16 do
    let tx = txn i in
    for k = 0 to 3 do
      ignore
        (Rt_lock.Lock_table.acquire t ~txn:tx
           ~key:(Printf.sprintf "k%d" ((i + k) mod 8))
           ~mode:(if k = 0 then Rt_lock.Lock_table.Exclusive
                  else Rt_lock.Lock_table.Shared)
           ~on_grant:(fun () -> ()))
    done;
    ignore (Rt_lock.Lock_table.detect_deadlock t)
  done;
  for i = 1 to 16 do
    Rt_lock.Lock_table.release_all t ~txn:(txn i)
  done

let partitioned_send () =
  let e = Rt_sim.Engine.create () in
  let net =
    Rt_net.Net.create e ~nodes:5
      ~default:(Rt_net.Net.reliable_link (Rt_net.Latency.Fixed (T.us 10)))
  in
  let got = ref 0 in
  for i = 0 to 4 do
    Rt_net.Net.register net i (fun ~src:_ _ -> incr got)
  done;
  Rt_net.Partition.split (Rt_net.Net.partition net) [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  for src = 0 to 4 do
    Rt_net.Net.broadcast net ~src ()
  done;
  Rt_sim.Engine.run e;
  !got

let tests =
  Test.make_grouped ~name:"experiments"
    [
      Test.make ~name:"T1 sandbox 2PC commit round"
        (Staged.stage
           (one_sandbox_commit (Config.Two_phase Two_pc.Presumed_abort)));
      Test.make ~name:"T2 cluster update txn (ROWA)"
        (Staged.stage (fun () ->
             one_cluster_txn Rt_replica.Replica_control.rowa ()));
      Test.make ~name:"T3 availability closed forms"
        (Staged.stage availability_sweep);
      Test.make ~name:"T4 cluster update txn (majority)"
        (Staged.stage (fun () ->
             one_cluster_txn (Rt_replica.Replica_control.majority ~sites:3) ()));
      Test.make ~name:"T5 recovery of 1k-record log" (Staged.stage recovery_1k);
      Test.make ~name:"T6 local 2PL transactions"
        (Staged.stage (fun () -> one_local_txn Rt_cc.Workbench.Two_pl ()));
      Test.make ~name:"F1 engine event churn" (Staged.stage engine_churn);
      Test.make ~name:"F2 quorum plan computation"
        (Staged.stage quorum_planning);
      Test.make ~name:"F3 local OCC transactions"
        (Staged.stage (fun () -> one_local_txn Rt_cc.Workbench.Optimistic ()));
      Test.make ~name:"F4 sandbox 3PC with crash"
        (Staged.stage sandbox_crash_run);
      Test.make ~name:"F5 sandbox QC commit round"
        (Staged.stage
           (one_sandbox_commit
              (Config.Quorum_commit
                 { commit_quorum = Some 2; abort_quorum = Some 2 })));
      Test.make ~name:"F6 weighted min read sets" (Staged.stage min_read_sets);
      Test.make ~name:"F7 lock acquire/detect/release" (Staged.stage lock_cycle);
      Test.make ~name:"F8 partitioned broadcast" (Staged.stage partitioned_send);
      Test.make ~name:"A1 WAL group-commit cycle"
        (Staged.stage (fun () ->
             let e = Rt_sim.Engine.create () in
             let wal = Rt_storage.Wal.create e ~force_latency:(T.us 50) () in
             for i = 1 to 32 do
               ignore (Rt_storage.Wal.append wal i);
               Rt_storage.Wal.force wal (fun () -> ())
             done;
             Rt_sim.Engine.run e;
             Rt_storage.Wal.force_count wal));
      Test.make ~name:"A2 read-only 2PC round"
        (Staged.stage (fun () ->
             let o =
               Sandbox.run ~read_only:[| false; true; true |]
                 ~proto:(Config.Two_phase Two_pc.Presumed_abort) ~sites:3
                 ~votes:[| true; true; true |] ()
             in
             assert o.agreement));
      Test.make ~name:"A3 wound-wait transactions"
        (Staged.stage (fun () ->
             one_local_txn Rt_cc.Workbench.Two_pl_wound_wait ()));
      Test.make ~name:"A4 lock blocking query"
        (Staged.stage (fun () ->
             let t = Rt_lock.Lock_table.create () in
             let txn i =
               Rt_types.Ids.Txn_id.make ~origin:0 ~seq:i ~start_ts:(T.us i)
             in
             for i = 1 to 8 do
               ignore
                 (Rt_lock.Lock_table.acquire t ~txn:(txn i) ~key:"hot"
                    ~mode:Rt_lock.Lock_table.Exclusive ~on_grant:(fun () -> ()))
             done;
             let n =
               List.length (Rt_lock.Lock_table.blocking t ~txn:(txn 8))
             in
             for i = 1 to 8 do
               Rt_lock.Lock_table.release_all t ~txn:(txn i)
             done;
             n));
    ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "== Bechamel micro-benchmarks (ns per run) ==\n\n";
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Printf.printf "%-45s %12.0f ns\n" name t
      | Some [] | None -> Printf.printf "%-45s %12s\n" name "n/a")
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* --json: machine-readable metrics snapshot                            *)
(* ------------------------------------------------------------------ *)

(* One deterministic cluster probe per commit protocol × placement:
   throughput, latency, and message counts from the simulation (virtual
   time, so the numbers are reproducible bit-for-bit across hosts and
   runs, unlike the bechamel wall-clock suite). *)

type probe = {
  probe : string;
  protocol : string;
  placement_name : string;
  throughput_txn_s : float;
  mean_latency_ms : float;
  p99_latency_ms : float;
  msgs_per_commit : float;
      (* Wire envelopes per commit: the number of scheduled network
         deliveries, which per-link batching amortizes.  Without batching
         every message is its own envelope. *)
  forces_per_commit : float;
  wal_torn : int;
      (* Device cycles a crash left partially durable, summed over
         sites.  The bench never crashes, so this is always 0 — it is in
         the snapshot so the perf gate watches the counter's plumbing,
         and bench_diff tolerates baselines that predate it. *)
  committed : int;
  aborted : int;
}

let json_placements =
  [
    ("full", None);
    ( "sharded-2x3",
      Some
        (Placement.create ~map:(Shard_map.hash ~shards:2) ~sites:5 ~degree:3
           ()) );
  ]

(* The group-commit / batching windows the optimized ("+gcb") probe arms
   use.  Small relative to the 100µs mean link latency and the 50µs force,
   so the added queueing delay is bounded while concurrent transactions
   share flushes and envelopes. *)
let gcb_tune (c : Config.t) =
  { c with group_commit_window = T.us 75; batch_window = Some (T.us 150) }

(* Per-envelope egress cost for every probe arm: the sender's port is
   busy for this long per transmission, the per-message overhead that
   batching amortizes.  Applied before [tune] so classical and +gcb arms
   run on the same platform model. *)
let probe_overhead = T.us 80

let run_probe ?(clients = 8) ?(tune = Fun.id) ~name
    ~protocol:(pname, commit_protocol) ~placement:(plname, placement) () =
  let config =
    let base = Config.default ~sites:5 () in
    tune
      { base with commit_protocol; placement; seed = 97;
        link = { base.link with overhead = probe_overhead } }
  in
  let mix =
    { Mix.default with keys = 200; ops_per_txn = 2; read_fraction = 0.5 }
  in
  let cluster = Cluster.create config in
  Cluster.populate cluster mix;
  let fleet =
    Client.start_fleet ~cluster ~clients ~mix ~route_by_shard:true ()
  in
  let duration = T.ms 200 in
  Cluster.run ~until:duration cluster;
  List.iter Client.stop fleet;
  Cluster.run ~until:(T.add duration (T.ms 100)) cluster;
  let stats = Client.total fleet in
  let lat = Cluster.latencies cluster in
  let forces =
    Array.fold_left
      (fun acc site -> acc + Site.wal_forces site)
      0 (Cluster.sites cluster)
  in
  let envelopes = (Cluster.net_stats cluster).envelopes in
  let per_commit x =
    if stats.committed = 0 then 0.
    else float_of_int x /. float_of_int stats.committed
  in
  {
    probe = name;
    protocol = pname;
    placement_name = plname;
    throughput_txn_s =
      float_of_int stats.committed /. T.to_float_s duration;
    mean_latency_ms = Sample.mean lat *. 1e3;
    p99_latency_ms = Sample.percentile lat 99. *. 1e3;
    msgs_per_commit = per_commit envelopes;
    forces_per_commit = per_commit forces;
    wal_torn =
      Array.fold_left
        (fun acc site -> acc + (Site.wal_stats site).Rt_storage.Wal.st_torn)
        0 (Cluster.sites cluster);
    committed = stats.committed;
    aborted = stats.aborted;
  }

(* Hand-rolled printer so the field order is part of the contract (no
   dependency on a JSON library's serialization order). *)
let probe_to_json b p =
  Buffer.add_string b
    (Printf.sprintf
       "    {\"probe\": %S, \"protocol\": %S, \"placement\": %S, \
        \"throughput_txn_s\": %.1f, \"mean_latency_ms\": %.3f, \
        \"p99_latency_ms\": %.3f, \"msgs_per_commit\": %.2f, \
        \"forces_per_commit\": %.2f, \"wal_torn\": %d, \"committed\": %d, \
        \"aborted\": %d}"
       p.probe p.protocol p.placement_name p.throughput_txn_s
       p.mean_latency_ms p.p99_latency_ms p.msgs_per_commit
       p.forces_per_commit p.wal_torn p.committed p.aborted)

(* The next index after the highest existing BENCH_<n>.json — NOT the
   first free slot from 0, which would silently shadow a newer artifact
   behind a stale low-numbered one. *)
let next_json_path () =
  let next =
    Array.fold_left
      (fun acc name ->
        match Scanf.sscanf_opt name "BENCH_%d.json%!" (fun n -> n) with
        | Some n -> max acc (n + 1)
        | None -> acc)
      0
      (Sys.readdir ".")
  in
  Printf.sprintf "BENCH_%d.json" next

let run_json () =
  let probes =
    List.concat_map
      (fun protocol ->
        List.concat_map
          (fun ((plname, _) as placement) ->
            [
              (* Classical per-transaction forces and per-message
                 envelopes... *)
              run_probe ~name:(Printf.sprintf "%s/%s" (fst protocol) plname)
                ~protocol ~placement ();
              (* ...vs WAL group commit + link batching at the same
                 load. *)
              run_probe ~tune:gcb_tune
                ~name:(Printf.sprintf "%s/%s+gcb" (fst protocol) plname)
                ~protocol ~placement ();
            ]
            @
            (* High-concurrency full-replication arms: 32 closed-loop
               clients pile onto the per-link FIFO and the force device,
               which is where coalescing pays. *)
            (if plname = "full" then
               [
                 run_probe ~clients:32
                   ~name:(Printf.sprintf "%s/full@32" (fst protocol))
                   ~protocol ~placement ();
                 run_probe ~clients:32 ~tune:gcb_tune
                   ~name:(Printf.sprintf "%s/full+gcb@32" (fst protocol))
                   ~protocol ~placement ();
               ]
             else []))
          json_placements)
      Rt_commit.Commit_protocol.all
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": 1,\n  \"probes\": [\n";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ",\n";
      probe_to_json b p)
    probes;
  Buffer.add_string b "\n  ]\n}\n";
  let path = next_json_path () in
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s (%d probes)\n" path (List.length probes)

let () =
  if Array.exists (fun a -> a = "--json") Sys.argv then run_json ()
  else begin
    print_tables ();
    run_benchmarks ()
  end
