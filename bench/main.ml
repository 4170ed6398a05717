(* Deterministic metrics snapshot: writes BENCH_<n>.json (the highest
   existing index in the working directory + 1), which
   tools/bench_diff.exe compares against the committed baseline.  The
   experiment tables come from bin/experiments.exe; host-time costs are
   measured by perfbench/.

     dune exec bench/main.exe *)

module Config = Rt_core.Config
module Cluster = Rt_core.Cluster
module Client = Rt_core.Client
module Site = Rt_core.Site
module Mix = Rt_workload.Mix
module Placement = Rt_placement.Placement
module Shard_map = Rt_placement.Shard_map
module Sample = Rt_metrics.Sample
module T = Rt_sim.Time

(* One deterministic cluster probe per commit protocol × placement:
   throughput, latency, and message counts from the simulation (virtual
   time, so the numbers are reproducible bit-for-bit across hosts and
   runs). *)

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
        \"forces_per_commit\": %.2f, \"committed\": %d, \"aborted\": %d}"
       p.probe p.protocol p.placement_name p.throughput_txn_s
       p.mean_latency_ms p.p99_latency_ms p.msgs_per_commit
       p.forces_per_commit p.committed p.aborted)

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

let () = run_json ()
