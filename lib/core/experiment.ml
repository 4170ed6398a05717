open Rt_sim
module Table = Rt_metrics.Table
module Counter = Rt_metrics.Counter
module Sample = Rt_metrics.Sample
module Sandbox = Rt_commit.Sandbox
module Commit_protocol = Rt_commit.Commit_protocol
module Two_pc = Rt_commit.Two_pc
module RC = Rt_replica.Replica_control
module Mix = Rt_workload.Mix
module Availability = Rt_quorum.Availability
module Votes = Rt_quorum.Votes
module Workbench = Rt_cc.Workbench
module Placement = Rt_placement.Placement
module Shard_map = Rt_placement.Shard_map

type spec = {
  id : string;
  title : string;
  table : unit -> Table.t;
}

let f1dec = Table.cell_f ~decimals:1
let f2dec = Table.cell_f ~decimals:2
let f3dec = Table.cell_f ~decimals:3

(* Run a closed-loop workload and report client stats plus the cluster. *)
let loaded_run ?(retry_aborts = true) ?(ordered_keys = true)
    ?(route_by_shard = false) ~config ~mix ~clients ~duration () =
  let cluster = Cluster.create config in
  Cluster.populate cluster mix;
  let fleet =
    Client.start_fleet ~cluster ~clients ~mix ~retry_aborts ~ordered_keys
      ~route_by_shard ()
  in
  Cluster.run ~until:duration cluster;
  List.iter Client.stop fleet;
  (* Drain in-flight transactions. *)
  Cluster.run ~until:(Time.add duration (Time.ms 200)) cluster;
  (cluster, Client.total fleet)

(* ------------------------------------------------------------------ *)
(* T1: message and forced-write complexity                             *)
(* ------------------------------------------------------------------ *)

(* Closed-form costs for the commit case with N sites (coordinator site
   included; P = N-1 remote participants).  Derived from the protocol
   definitions; the sandbox measurement must match exactly. *)
let analytic_commit proto ~sites =
  let p = sites - 1 in
  match proto with
  | Config.Two_phase Two_pc.Presumed_nothing -> (4 * p, 1 + (2 * sites))
  | Config.Two_phase Two_pc.Presumed_abort -> (4 * p, 1 + (2 * sites))
  | Config.Two_phase Two_pc.Presumed_commit -> (3 * p, 2 + sites)
  | Config.Three_phase -> (5 * p, 2 + (3 * sites))
  | Config.Quorum_commit _ -> (5 * p, 2 + (3 * sites))
  (* Paxos Commit: 2PC's message pattern plus, per extra acceptor pair,
     the vote fan-out (2P+1 instances reach 2F extra acceptors) and their
     phase-2b relays to the ballot-0 leader.  F = 0 is exactly 2PC-PrN. *)
  | Config.Paxos_commit { f } ->
      let f =
        Commit_protocol.paxos_f f
          ~participants:(List.init sites Fun.id)
          ~coordinator:0
      in
      ((4 * p) + (2 * f * ((2 * p) + 1)), 1 + (2 * sites))

let t1 =
  {
    id = "T1";
    title =
      "Messages and forced log writes per committed transaction (analytic \
       vs measured, failure-free)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "protocol"; "N"; "msgs (analytic)"; "msgs (measured)";
                "forced (analytic)"; "forced (measured)"; "lazy writes" ]
        in
        List.iter
          (fun sites ->
            List.iter
              (fun proto ->
                let o =
                  Sandbox.run_fifo ~proto ~sites
                    ~votes:(Array.make sites true) ()
                in
                let am, af = analytic_commit proto ~sites in
                Table.add_row table
                  [
                    Commit_protocol.label proto ~sites;
                    Table.cell_i sites;
                    Table.cell_i am;
                    Table.cell_i o.messages;
                    Table.cell_i af;
                    Table.cell_i o.forced_writes;
                    Table.cell_i o.lazy_writes;
                  ])
              (List.map snd Commit_protocol.all);
            Table.add_rule table)
          [ 3; 5; 7 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* T2: commit latency by protocol and replication degree               *)
(* ------------------------------------------------------------------ *)

let t2 =
  {
    id = "T2";
    title =
      "Commit latency (ms) of update transactions by protocol and \
       replication degree (ROWA, single client)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:[ "protocol"; "N"; "mean"; "p50"; "p99"; "txns" ]
        in
        List.iter
          (fun sites ->
            List.iter
              (fun (name, commit_protocol) ->
                let config =
                  { (Config.default ~sites ()) with
                    commit_protocol;
                    link =
                      Rt_net.Net.reliable_link
                        (Rt_net.Latency.Exponential
                           { min = Time.us 100; mean = Time.us 500 });
                    force_latency = Time.us 100;
                    seed = 7 }
                in
                let mix =
                  { Mix.default with keys = 100; ops_per_txn = 2;
                    read_fraction = 0. }
                in
                let cluster, _ =
                  loaded_run ~config ~mix ~clients:1 ~duration:(Time.ms 800) ()
                in
                let lat = Cluster.latencies cluster in
                let ms p = Sample.percentile lat p *. 1e3 in
                Table.add_row table
                  [
                    name;
                    Table.cell_i sites;
                    f2dec (Sample.mean lat *. 1e3);
                    f2dec (ms 50.);
                    f2dec (ms 99.);
                    Table.cell_i (Sample.count lat);
                  ])
              Commit_protocol.all;
            Table.add_rule table)
          [ 3; 5; 7 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* T3: closed-form availability                                         *)
(* ------------------------------------------------------------------ *)

let t3 =
  {
    id = "T3";
    title =
      "Closed-form operation availability per replica-control scheme \
       (independent site up-probability p)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "scheme"; "N"; "p"; "read avail"; "write avail"; "update txn" ]
        in
        let row name n p read write txn =
          Table.add_row table
            [ name; Table.cell_i n; f2dec p; Table.cell_f ~decimals:4 read;
              Table.cell_f ~decimals:4 write; Table.cell_f ~decimals:4 txn ]
        in
        List.iter
          (fun p ->
            List.iter
              (fun n ->
                row "ROWA" n p
                  (Availability.rowa_read ~sites:n ~p)
                  (Availability.rowa_write ~sites:n ~p)
                  (Availability.rowa_write ~sites:n ~p);
                row "ROWA-A" n p
                  (Availability.rowa_read ~sites:n ~p)
                  (Availability.available_copies_write ~sites:n ~p)
                  (Availability.available_copies_write ~sites:n ~p);
                let v = Votes.majority ~sites:n in
                row "Majority" n p
                  (Availability.read_availability v ~p)
                  (Availability.write_availability v ~p)
                  (Availability.txn_availability v ~p))
              [ 3; 5; 7 ];
            (* A weighted assignment: one heavy site among five. *)
            let weighted =
              Votes.make ~votes:[| 3; 1; 1; 1; 1 |] ~read_quorum:3
                ~write_quorum:5
            in
            row "Weighted(3,1,1,1,1)" 5 p
              (Availability.read_availability weighted ~p)
              (Availability.write_availability weighted ~p)
              (Availability.txn_availability weighted ~p);
            (* Tree quorums (binary, height 2 = 7 sites): symmetric
               read/write quorums of logarithmic size. *)
            let tree = Rt_quorum.Tree_quorum.availability ~degree:2 ~height:2 ~p in
            row "Tree(2,h=2)" 7 p tree tree tree;
            Table.add_rule table)
          [ 0.90; 0.99 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* T4: throughput by replica control × read fraction                   *)
(* ------------------------------------------------------------------ *)

let replica_controls ~sites =
  [
    ("ROWA", RC.rowa);
    ("ROWA-A", RC.available_copies);
    ("Majority", RC.majority ~sites);
    ("Primary", RC.primary 0);
  ]

let t4 =
  {
    id = "T4";
    title =
      "Throughput by replica-control protocol and read fraction (N=5, 16 \
       clients, 2PC-PrA)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "replica control"; "read fraction"; "committed/s"; "abort %" ]
        in
        List.iter
          (fun rf ->
            List.iter
              (fun (name, rc) ->
                let config =
                  { (Config.default ~sites:5 ()) with
                    replica_control = rc; seed = 11 }
                in
                let mix =
                  { Mix.default with keys = 400; ops_per_txn = 3;
                    read_fraction = rf }
                in
                let duration = Time.ms 600 in
                let _, stats =
                  loaded_run ~config ~mix ~clients:16 ~duration ()
                in
                let total = stats.committed + stats.aborted in
                Table.add_row table
                  [
                    name;
                    f2dec rf;
                    f1dec
                      (float_of_int stats.committed /. Time.to_float_s duration);
                    f1dec
                      (if total = 0 then 0.
                       else 100. *. float_of_int stats.aborted
                            /. float_of_int total);
                  ])
              (replica_controls ~sites:5);
            Table.add_rule table)
          [ 0.5; 0.95 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* T5: recovery time vs log length                                     *)
(* ------------------------------------------------------------------ *)

let t5 =
  {
    id = "T5";
    title =
      "Restart time vs durable log length (replay model: 5µs per redone \
       record, 0.5µs per scanned record)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "log records"; "winners redone"; "in doubt"; "replay (ms)" ]
        in
        let txn seq =
          Rt_types.Ids.Txn_id.make ~origin:0 ~seq ~start_ts:(Time.us seq)
        in
        List.iter
          (fun n ->
            (* Two-thirds committed update txns of 2 records each, a tail
               of in-doubt ones. *)
            let log = ref [] in
            let i = ref 0 in
            while 3 * !i < n do
              incr i;
              let t = txn !i in
              let key = Printf.sprintf "k%d" (!i mod 1000) in
              log :=
                Rt_storage.Log_record.Commit t
                :: Rt_storage.Log_record.Prepared
                     { txn = t; participants = [ 0; 1; 2 ] }
                :: Rt_storage.Log_record.Update
                     { txn = t; key; value = "v"; version = !i }
                :: !log
            done;
            let t = txn (!i + 1) in
            log :=
              Rt_storage.Log_record.Prepared
                { txn = t; participants = [ 0; 1; 2 ] }
              :: Rt_storage.Log_record.Update
                   { txn = t; key = "hot"; value = "v"; version = 1 }
              :: !log;
            let log = List.rev !log in
            let kv = Rt_storage.Kv.create () in
            let o = Rt_storage.Recovery.recover kv log in
            let d =
              Rt_storage.Recovery.replay_duration ~scanned:o.scanned
                ~redone:o.redone
            in
            Table.add_row table
              [
                Table.cell_i o.scanned;
                Table.cell_i o.redone;
                Table.cell_i (List.length o.in_doubt);
                f2dec (Time.to_float_ms d);
              ])
          [ 1_000; 5_000; 20_000; 100_000 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* T6: local CC comparison                                              *)
(* ------------------------------------------------------------------ *)

let t6 =
  {
    id = "T6";
    title =
      "Local concurrency control under contention (16 clients, 4 ops/txn, \
       50% reads, 200 keys)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "scheme"; "zipf theta"; "committed/s"; "abort %";
                "deadlock"; "order"; "validation" ]
        in
        List.iter
          (fun theta ->
            List.iter
              (fun scheme ->
                let mix =
                  { Mix.default with keys = 200; ops_per_txn = 4;
                    read_fraction = 0.5; theta }
                in
                let r =
                  Workbench.run ~seed:3 ~scheme ~clients:16 ~mix
                    ~duration:(Time.ms 200) ()
                in
                Table.add_row table
                  [
                    r.scheme;
                    f2dec theta;
                    f1dec r.throughput;
                    f1dec (100. *. r.abort_rate);
                    Table.cell_i r.deadlock_aborts;
                    Table.cell_i r.order_aborts;
                    Table.cell_i r.validation_aborts;
                  ])
              Workbench.all_schemes;
            Table.add_rule table)
          [ 0.0; 0.8; 1.2 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* F1: latency percentiles vs multiprogramming level                   *)
(* ------------------------------------------------------------------ *)

let f1 =
  {
    id = "F1";
    title =
      "Latency percentiles vs multiprogramming level (N=3, ROWA, 2PC-PrA): \
       tail growth under load";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "clients"; "committed/s"; "mean ms"; "p50 ms"; "p95 ms";
                "p99 ms" ]
        in
        List.iter
          (fun clients ->
            let config = { (Config.default ~sites:3 ()) with seed = 5 } in
            let mix =
              { Mix.default with keys = 500; ops_per_txn = 3;
                read_fraction = 0.5 }
            in
            let duration = Time.ms 500 in
            let cluster, stats =
              loaded_run ~config ~mix ~clients ~duration ()
            in
            let lat = Cluster.latencies cluster in
            let ms p = Sample.percentile lat p *. 1e3 in
            Table.add_row table
              [
                Table.cell_i clients;
                f1dec (float_of_int stats.committed /. Time.to_float_s duration);
                f2dec (Sample.mean lat *. 1e3);
                f2dec (ms 50.);
                f2dec (ms 95.);
                f2dec (ms 99.);
              ])
          [ 1; 4; 16; 64 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* F2: throughput vs number of sites                                    *)
(* ------------------------------------------------------------------ *)

let f2 =
  {
    id = "F2";
    title =
      "Throughput vs replication degree: ROWA vs majority quorum, \
       read-heavy (95%) and write-heavy (0%) (16 clients)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "sites"; "ROWA read-heavy"; "Quorum read-heavy";
                "ROWA write-heavy"; "Quorum write-heavy" ]
        in
        List.iter
          (fun sites ->
            let cell rc rf =
              let config =
                { (Config.default ~sites ()) with replica_control = rc;
                  seed = 13 }
              in
              let mix =
                { Mix.default with keys = 400; ops_per_txn = 3;
                  read_fraction = rf }
              in
              let duration = Time.ms 400 in
              let _, stats = loaded_run ~config ~mix ~clients:16 ~duration () in
              float_of_int stats.committed /. Time.to_float_s duration
            in
            Table.add_row table
              [
                Table.cell_i sites;
                f1dec (cell RC.rowa 0.95);
                f1dec (cell (RC.majority ~sites) 0.95);
                f1dec (cell RC.rowa 0.0);
                f1dec (cell (RC.majority ~sites) 0.0);
              ])
          [ 1; 3; 5; 7 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* F3: abort rate vs skew                                               *)
(* ------------------------------------------------------------------ *)

let f3 =
  {
    id = "F3";
    title = "Abort rate (%) vs access skew per CC scheme (16 clients)";
    table =
      (fun () ->
        let table =
          Table.create ~columns:[ "zipf theta"; "2PL"; "TO"; "OCC" ] in
        List.iter
          (fun theta ->
            let rate scheme =
              let mix =
                { Mix.default with keys = 200; ops_per_txn = 4;
                  read_fraction = 0.5; theta }
              in
              let r =
                Workbench.run ~seed:9 ~scheme ~clients:16 ~mix
                  ~duration:(Time.ms 150) ()
              in
              100. *. r.abort_rate
            in
            Table.add_row table
              [
                f2dec theta;
                f2dec (rate Workbench.Two_pl);
                f2dec (rate Workbench.Timestamp);
                f2dec (rate Workbench.Optimistic);
              ])
          [ 0.0; 0.4; 0.8; 1.0; 1.2; 1.4 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* F4: availability vs site failure rate                                *)
(* ------------------------------------------------------------------ *)

let f4 =
  {
    id = "F4";
    title =
      "Update-transaction availability vs site MTTF (N=3, MTTR=100ms): \
       measured success fraction vs closed-form prediction";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "scheme"; "MTTF"; "p(up)"; "measured"; "analytic" ]
        in
        let mttr = Time.ms 100 in
        List.iter
          (fun mttf ->
            let p =
              Time.to_float_s mttf /. (Time.to_float_s mttf +. Time.to_float_s mttr)
            in
            List.iter
              (fun (name, rc, commit_protocol, analytic) ->
                let config =
                  { (Config.default ~sites:3 ()) with
                    replica_control = rc; commit_protocol; seed = 21 }
                in
                let mix =
                  { Mix.default with keys = 300; ops_per_txn = 2;
                    read_fraction = 0. }
                in
                let cluster = Cluster.create config in
                Cluster.populate cluster mix;
                let fleet =
                  Client.start_fleet ~cluster ~clients:6 ~mix
                    ~retry_aborts:false ~think:(Time.us 200) ()
                in
                let until = Time.sec 4 in
                Failure.schedule cluster
                  (Failure.random_crashes cluster ~mttf ~mttr ~until);
                Cluster.run ~until cluster;
                List.iter Client.stop fleet;
                (* Availability conditions on the coordinator being up
                   (the analytic model does too): exclude submissions to a
                   dead home site and mid-crash client notifications. *)
                let c = Cluster.counters cluster in
                let started = Counter.get c "txns_started" in
                let mid_crash = Counter.get c "aborts_site_down" in
                let commits = Counter.get c "commits" in
                let denom = started - mid_crash in
                let measured =
                  if denom <= 0 then 0.
                  else float_of_int commits /. float_of_int denom
                in
                Table.add_row table
                  [
                    name;
                    Format.asprintf "%a" Time.pp mttf;
                    f3dec p;
                    f3dec measured;
                    f3dec (analytic p);
                  ])
              [
                ( "ROWA", RC.rowa,
                  Config.Two_phase Two_pc.Presumed_abort,
                  fun p -> Availability.rowa_write ~sites:3 ~p );
                ( "ROWA-A", RC.available_copies,
                  Config.Two_phase Two_pc.Presumed_abort,
                  fun p -> Availability.available_copies_write ~sites:3 ~p );
                ( "Majority", RC.majority ~sites:3,
                  Config.Quorum_commit
                    { commit_quorum = None; abort_quorum = None },
                  fun p -> Availability.majority_txn ~sites:3 ~p );
              ];
            Table.add_rule table)
          [ Time.sec 2; Time.ms 500; Time.ms 200 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* F5: blocking after coordinator crash                                 *)
(* ------------------------------------------------------------------ *)

let f5 =
  {
    id = "F5";
    title =
      "Coordinator crash during commit (no recovery): fraction of runs \
       with a blocked survivor, across crash points (N=3, all-yes)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "protocol"; "runs"; "blocked %"; "undecided %"; "agreement %" ]
        in
        List.iter
          (fun proto ->
            let runs = ref 0
            and blocked = ref 0
            and undecided = ref 0
            and agree = ref 0 in
            for k = 1 to 15 do
              for seed = 1 to 10 do
                incr runs;
                let o =
                  Sandbox.run ~seed ~crashes:[ (0, 2 * k) ] ~max_steps:1500
                    ~proto ~sites:3 ~votes:(Array.make 3 true) ()
                in
                if o.blocked then incr blocked;
                if not o.all_decided then incr undecided;
                if o.agreement then incr agree
              done
            done;
            let pct x = 100. *. float_of_int x /. float_of_int !runs in
            Table.add_row table
              [
                Commit_protocol.label proto ~sites:3;
                Table.cell_i !runs;
                f1dec (pct !blocked);
                f1dec (pct !undecided);
                f1dec (pct !agree);
              ])
          [
            Config.Two_phase Two_pc.Presumed_abort;
            Config.Three_phase;
            Config.Quorum_commit
              { commit_quorum = Some 2; abort_quorum = Some 2 };
            (* The Gray–Lamport contrast: at F = 0 Paxos Commit blocks
               exactly like 2PC (the sole acceptor died with the
               coordinator); at F = 1 the surviving acceptor quorum
               elects a new leader and every run terminates. *)
            Config.Paxos_commit { f = Some 0 };
            Config.Paxos_commit { f = Some 1 };
          ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* F6: read-quorum sizing crossover                                     *)
(* ------------------------------------------------------------------ *)

let f6 =
  {
    id = "F6";
    title =
      "Throughput by read-quorum size r (N=7, w=8-r) across read \
       fractions: the weighted-voting crossover";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:[ "read fraction"; "r=1,w=7"; "r=2,w=6"; "r=3,w=5";
                       "r=4,w=4" ]
        in
        List.iter
          (fun rf ->
            let cells =
              List.map
                (fun r ->
                  let rc =
                    RC.quorum ~read_quorum:r ~write_quorum:(8 - r) ~sites:7
                  in
                  let config =
                    { (Config.default ~sites:7 ()) with
                      replica_control = rc; seed = 31 }
                  in
                  let mix =
                    { Mix.default with keys = 400; ops_per_txn = 3;
                      read_fraction = rf }
                  in
                  let duration = Time.ms 400 in
                  let _, stats =
                    loaded_run ~config ~mix ~clients:16 ~duration ()
                  in
                  float_of_int stats.committed /. Time.to_float_s duration)
                [ 1; 2; 3; 4 ]
            in
            Table.add_row table (f2dec rf :: List.map f1dec cells))
          [ 0.0; 0.2; 0.5; 0.8; 0.95 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* F7: deadlocks vs multiprogramming                                    *)
(* ------------------------------------------------------------------ *)

let f7 =
  {
    id = "F7";
    title =
      "Deadlock victims and lock-wait timeouts vs multiprogramming level \
       (N=3, unordered key access, 20 hot keys, 80% writes)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "clients"; "committed/s"; "deadlocks/1k txns";
                "lock timeouts/1k txns" ]
        in
        List.iter
          (fun clients ->
            let config = { (Config.default ~sites:3 ()) with seed = 23 } in
            let mix =
              { Mix.default with keys = 20; ops_per_txn = 4;
                read_fraction = 0.2 }
            in
            let duration = Time.ms 400 in
            let cluster, stats =
              loaded_run ~config ~mix ~clients ~duration ~ordered_keys:false ()
            in
            let c = Cluster.counters cluster in
            let per_1k n =
              if stats.committed = 0 then 0.
              else 1000. *. float_of_int n /. float_of_int stats.committed
            in
            Table.add_row table
              [
                Table.cell_i clients;
                f1dec (float_of_int stats.committed /. Time.to_float_s duration);
                f2dec (per_1k (Counter.get c "deadlock_victims"));
                f2dec (per_1k (Counter.get c "lock_timeouts"));
              ])
          [ 2; 8; 16; 32; 64 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* F8: partition timeline                                               *)
(* ------------------------------------------------------------------ *)

let f8 =
  {
    id = "F8";
    title =
      "Network partition {0,1} | {2,3,4} from 300ms to 800ms (N=5): \
       commits per side per phase, and consistency after healing";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "configuration"; "phase"; "majority-side commits";
                "minority-side commits"; "split-brain" ]
        in
        let run_config name rc commit_protocol =
          let config =
            { (Config.default ~sites:5 ()) with
              replica_control = rc; commit_protocol; seed = 41 }
          in
          let cluster = Cluster.create config in
          let mix =
            { Mix.default with keys = 100; ops_per_txn = 2;
              read_fraction = 0.2 }
          in
          Cluster.populate cluster mix;
          (* Minority clients on sites 0-1, majority clients on 2-4. *)
          let minority =
            List.map
              (fun s ->
                let c =
                  Client.create ~cluster ~site:s ~mix ~retry_aborts:false
                    ~think:(Time.us 500) ()
                in
                Client.start c;
                c)
              [ 0; 1 ]
          in
          let majority =
            List.map
              (fun s ->
                let c =
                  Client.create ~cluster ~site:s ~mix ~retry_aborts:false
                    ~think:(Time.us 500) ()
                in
                Client.start c;
                c)
              [ 2; 3; 4 ]
          in
          let snap clients = (Client.total clients).committed in
          let phases = ref [] in
          let mark label at =
            ignore
              (Engine.schedule_at (Cluster.engine cluster) at (fun () ->
                   phases := (label, snap majority, snap minority) :: !phases))
          in
          (* Stop traffic before healing so post-heal writes cannot mask
             what happened during the partition. *)
          ignore
            (Engine.schedule_at (Cluster.engine cluster) (Time.ms 760)
               (fun () -> List.iter Client.stop (minority @ majority)));
          let conflicts = ref (-1) in
          ignore
            (Engine.schedule_at (Cluster.engine cluster) (Time.ms 799)
               (fun () ->
                 (* A fork is the same version number carrying different
                    values on the two sides: divergent histories.  Mere
                    staleness (different versions) is legal under
                    quorums. *)
                 let item_of snapshot key = List.assoc_opt key snapshot in
                 let now_min =
                   Rt_storage.Kv.snapshot (Site.kv (Cluster.site cluster 0))
                 in
                 let now_maj =
                   Rt_storage.Kv.snapshot (Site.kv (Cluster.site cluster 2))
                 in
                 let keys = List.map fst now_maj in
                 conflicts :=
                   List.length
                     (List.filter
                        (fun k ->
                          match (item_of now_min k, item_of now_maj k) with
                          | Some a, Some b ->
                              a.Rt_storage.Kv.version = b.Rt_storage.Kv.version
                              && a.value <> b.value
                          | _ -> false)
                        keys)));
          Failure.schedule cluster
            [
              (Time.ms 300, Failure.Partition [ [ 0; 1 ]; [ 2; 3; 4 ] ]);
              (Time.ms 800, Failure.Heal_partition);
            ];
          mark "pre-partition" (Time.ms 300);
          mark "partitioned" (Time.ms 800);
          Cluster.run ~until:(Time.ms 1000) cluster;
          let rows = List.rev !phases in
          let prev_maj = ref 0 and prev_min = ref 0 in
          List.iter
            (fun (label, maj, mino) ->
              Table.add_row table
                [
                  name;
                  label;
                  Table.cell_i (maj - !prev_maj);
                  Table.cell_i (mino - !prev_min);
                  (if label = "partitioned" then
                     Printf.sprintf "%d forked keys" !conflicts
                   else "-");
                ];
              prev_maj := maj;
              prev_min := mino)
            rows;
          Table.add_rule table
        in
        run_config "ROWA-A + 2PC-PrA (not partition-safe)"
          RC.available_copies (Config.Two_phase Two_pc.Presumed_abort);
        run_config "Majority quorum + QC (partition-safe)"
          (RC.majority ~sites:5)
          (Config.Quorum_commit { commit_quorum = None; abort_quorum = None });
        table);
  }


(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let a1 =
  {
    id = "A1";
    title =
      "Ablation: group commit — forced-write batching as concurrent \
       commits share log-force cycles (N=3, 2PC-PrA, write-only)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "clients"; "committed"; "log forces (site 0)";
                "commits per force" ]
        in
        List.iter
          (fun clients ->
            let config =
              { (Config.default ~sites:3 ()) with
                force_latency = Time.us 200; seed = 47 }
            in
            let mix =
              { Mix.default with keys = 500; ops_per_txn = 2;
                read_fraction = 0. }
            in
            let cluster, stats =
              loaded_run ~config ~mix ~clients ~duration:(Time.ms 300) ()
            in
            let forces = Site.wal_forces (Cluster.site cluster 0) in
            Table.add_row table
              [
                Table.cell_i clients;
                Table.cell_i stats.committed;
                Table.cell_i forces;
                f2dec
                  (if forces = 0 then 0.
                   else float_of_int stats.committed /. float_of_int forces);
              ])
          [ 1; 4; 16; 64 ];
        table);
  }

let a2 =
  {
    id = "A2";
    title =
      "Ablation: 2PC read-only optimization — cost of one transaction \
       with k read-only participants out of 5 (presumed abort)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "read-only sites"; "msgs (off)"; "msgs (on)";
                "forced (off)"; "forced (on)" ]
        in
        let sites = 5 in
        let votes = Array.make sites true in
        List.iter
          (fun k ->
            let ro = Array.init sites (fun i -> i >= sites - k) in
            let proto = Config.Two_phase Two_pc.Presumed_abort in
            let off = Sandbox.run ~proto ~sites ~votes () in
            let on = Sandbox.run ~read_only:ro ~proto ~sites ~votes () in
            Table.add_row table
              [
                Table.cell_i k;
                Table.cell_i off.messages;
                Table.cell_i on.messages;
                Table.cell_i off.forced_writes;
                Table.cell_i on.forced_writes;
              ])
          [ 0; 1; 2; 3; 4 ];
        table);
  }

let a3 =
  {
    id = "A3";
    title =
      "Ablation: deadlock handling — detection vs wound-wait vs wait-die \
       (16 clients, hot 30-key set, 70% writes, unordered key access)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "policy"; "zipf theta"; "committed/s"; "abort %";
                "victim aborts" ]
        in
        List.iter
          (fun theta ->
            List.iter
              (fun scheme ->
                let mix =
                  { Mix.default with keys = 30; ops_per_txn = 4;
                    read_fraction = 0.3; theta }
                in
                let r =
                  Workbench.run ~seed:51 ~ordered:false ~scheme ~clients:16
                    ~mix ~duration:(Time.ms 150) ()
                in
                Table.add_row table
                  [
                    r.scheme;
                    f2dec theta;
                    f1dec r.throughput;
                    f1dec (100. *. r.abort_rate);
                    Table.cell_i r.deadlock_aborts;
                  ])
              Workbench.all_2pl_policies;
            Table.add_rule table)
          [ 0.0; 1.0 ];
        table);
  }


let a4 =
  {
    id = "A4";
    title =
      "Ablation: distributed deadlock handling — lock-wait timeout vs \
       Chandy-Misra-Haas probes (N=3, unordered access, hot keys)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "resolution"; "committed/s"; "lock timeouts";
                "probe detections"; "mean latency ms" ]
        in
        List.iter
          (fun (name, probe_deadlocks) ->
            let config =
              { (Config.default ~sites:3 ()) with probe_deadlocks; seed = 61 }
            in
            let mix =
              { Mix.default with keys = 15; ops_per_txn = 4;
                read_fraction = 0.3 }
            in
            let duration = Time.ms 400 in
            let cluster, stats =
              loaded_run ~config ~mix ~clients:12 ~duration
                ~ordered_keys:false ()
            in
            let c = Cluster.counters cluster in
            let lat = Cluster.latencies cluster in
            Table.add_row table
              [
                name;
                f1dec
                  (float_of_int stats.committed /. Time.to_float_s duration);
                Table.cell_i (Counter.get c "lock_timeouts");
                Table.cell_i (Counter.get c "probe_deadlocks");
                f2dec (Sample.mean lat *. 1e3);
              ])
          [ ("timeout only", false); ("CMH probes", true) ];
        table);
  }


let a5 =
  {
    id = "A5";
    title =
      "Ablation: distributed concurrency control — strict 2PL vs \
       timestamp ordering at the replicas (N=3, ROWA, 12 clients)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "scheme"; "zipf theta"; "committed/s"; "abort %";
                "order conflicts"; "lock timeouts" ]
        in
        List.iter
          (fun theta ->
            List.iter
              (fun (name, concurrency) ->
                let config =
                  { (Config.default ~sites:3 ()) with concurrency; seed = 71 }
                in
                let mix =
                  { Mix.default with keys = 60; ops_per_txn = 3;
                    read_fraction = 0.5; theta }
                in
                let duration = Time.ms 400 in
                let cluster, stats =
                  loaded_run ~config ~mix ~clients:12 ~duration ()
                in
                let c = Cluster.counters cluster in
                let total = stats.committed + stats.aborted in
                Table.add_row table
                  [
                    name;
                    f2dec theta;
                    f1dec
                      (float_of_int stats.committed /. Time.to_float_s duration);
                    f1dec
                      (if total = 0 then 0.
                       else 100. *. float_of_int stats.aborted
                            /. float_of_int total);
                    Table.cell_i (Counter.get c "order_conflicts");
                    Table.cell_i (Counter.get c "lock_timeouts");
                  ])
              [ ("2PL", Config.Locking); ("TO", Config.Timestamp) ];
            Table.add_rule table)
          [ 0.0; 0.9 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* S1: throughput vs shard count                                        *)
(* ------------------------------------------------------------------ *)

let s1 =
  {
    id = "S1";
    title =
      "Sharding: throughput vs shard count (N=9 fixed, 3 replicas per \
       shard, round-robin placement, shard-routed clients, write-heavy)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "shards"; "degree"; "committed/s"; "abort %";
                "msgs per commit" ]
        in
        let sites = 9 in
        List.iter
          (fun shards ->
            let placement =
              Placement.create ~map:(Shard_map.hash ~shards) ~sites ~degree:3
                ()
            in
            let config =
              { (Config.default ~sites ()) with
                placement = Some placement; seed = 83 }
            in
            (* Single-operation (hence single-shard) transactions: the
               pure partitioning claim.  S2 prices the cross-shard
               mixture separately. *)
            let mix =
              { Mix.default with keys = 360; ops_per_txn = 1;
                read_fraction = 0. }
            in
            let duration = Time.ms 400 in
            let cluster, stats =
              loaded_run ~config ~mix ~clients:18 ~duration
                ~route_by_shard:true ()
            in
            let c = Counter.get (Cluster.counters cluster) in
            let total = stats.committed + stats.aborted in
            Table.add_row table
              [
                Table.cell_i shards;
                Table.cell_i 3;
                f1dec
                  (float_of_int stats.committed /. Time.to_float_s duration);
                f1dec
                  (if total = 0 then 0.
                   else 100. *. float_of_int stats.aborted
                        /. float_of_int total);
                f1dec
                  (if stats.committed = 0 then 0.
                   else
                     float_of_int (c "data_msgs" + c "commit_protocol_msgs")
                     /. float_of_int stats.committed);
              ])
          [ 1; 2; 4; 8 ];
        table);
  }

(* ------------------------------------------------------------------ *)
(* S2: commit cost vs cross-shard fraction                              *)
(* ------------------------------------------------------------------ *)

let s2 =
  {
    id = "S2";
    title =
      "Sharding: commit cost vs cross-shard fraction (N=6, two range \
       shards on disjoint replica triples, single client at a shard-0 \
       replica, 2PC-PrA, write-only)";
    table =
      (fun () ->
        let table =
          Table.create
            ~columns:
              [ "cross-shard fraction"; "committed"; "mean ms"; "p99 ms";
                "msgs per txn"; "forces per txn" ]
        in
        List.iter
          (fun frac ->
            let sites = 6 in
            (* Range split at "b": "a…" keys → shard 0 on {0,1,2},
               "b…" keys → shard 1 on {3,4,5} (Spread layout). *)
            let placement =
              Placement.create ~layout:Placement.Spread
                ~map:(Shard_map.range ~boundaries:[ "b" ])
                ~sites ~degree:3 ()
            in
            let config =
              { (Config.default ~sites ()) with
                placement = Some placement; seed = 89 }
            in
            let cluster = Cluster.create config in
            let n = 200 in
            (* Bresenham spread of cross-shard transactions through the
               sequence: txn i is cross-shard iff the running integral of
               [frac] steps. *)
            let cross i =
              int_of_float (frac *. float_of_int (i + 1))
              > int_of_float (frac *. float_of_int i)
            in
            let key p i = Printf.sprintf "%s%02d" p (i mod 20) in
            let ops i =
              if cross i then
                [ Mix.Write (key "a" i, "v"); Mix.Write (key "b" i, "v") ]
              else
                [ Mix.Write (key "a" i, "v"); Mix.Write (key "a" (i + 7), "v") ]
            in
            let committed = ref 0 in
            let engine = Cluster.engine cluster in
            let rec go i =
              if i < n then
                Cluster.submit cluster ~site:0 ~ops:(ops i) ~k:(fun o ->
                    if o = Site.Committed then incr committed;
                    ignore
                      (Engine.schedule_after engine (Time.us 10) (fun () ->
                           go (i + 1))))
            in
            go 0;
            Cluster.run ~until:(Time.sec 2) cluster;
            let c = Counter.get (Cluster.counters cluster) in
            let lat = Cluster.latencies cluster in
            let forces =
              Array.fold_left
                (fun acc site -> acc + Site.wal_forces site)
                0 (Cluster.sites cluster)
            in
            let per_txn x =
              if !committed = 0 then 0.
              else float_of_int x /. float_of_int !committed
            in
            Table.add_row table
              [
                f2dec frac;
                Table.cell_i !committed;
                f2dec (Sample.mean lat *. 1e3);
                f2dec (Sample.percentile lat 99. *. 1e3);
                f1dec (per_txn (c "data_msgs" + c "commit_protocol_msgs"));
                f2dec (per_txn forces);
              ])
          [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
        table);
  }

let all =
  [ t1; t2; t3; t4; t5; t6; f1; f2; f3; f4; f5; f6; f7; f8; a1; a2; a3; a4;
    a5; s1; s2 ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun s -> String.lowercase_ascii s.id = id) all
