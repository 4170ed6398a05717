(* The benchmark's workloads, one repetition of each, and one closure of
   the explorer's reference scenario.

   A workload is a cluster configuration driven by closed-loop clients
   (fixed client count, zero think time) for a fixed virtual length.
   All cluster workloads run 5 sites on the probe platform of
   bench/main.exe: Exp(100us) links, 50us forces, 80us egress overhead
   per envelope. *)

open Rt_core
module Engine = Rt_sim.Engine
module Time = Rt_sim.Time
module Mix = Rt_workload.Mix
module Sample = Rt_metrics.Sample
module Counter = Rt_metrics.Counter
module Explore = Rt_explore.Explore
module Sweep = Rt_explore.Sweep

type t = {
  name : string;
  config : Config.t;  (* the seed comes from the command line *)
  mix : Mix.t;
  clients : int;
  route_by_shard : bool;
  length : Time.t;
  churn : bool;
      (* From 250ms, every 500ms sites 1-4 take turns crashing for
         150ms. *)
  seeds : int;
      (* Derived seeds a run measures at [base_seconds]: enough for the
         spread of every end-to-end metric across runs to sit well inside
         its bound. *)
}

(* The --seconds the repetition counts below are given for. *)
let base_seconds = 12.

let platform =
  let base = Config.default ~sites:5 () in
  { base with link = { base.link with overhead = Time.us 80 } }

let uniform = { Mix.default with keys = 10_000 }

(* Why each workload exists is in README.md. *)
let all =
  [
    {
      name = "rowa-uniform";
      config = platform;
      mix = uniform;
      clients = 16;
      route_by_shard = false;
      length = Time.sec 4;
      churn = false;
      seeds = 5;
    };
    {
      name = "hotspot-2pl";
      config = platform;
      (* Zipf 0.5: under 0.99 one key takes nearly a fifth of all
         accesses, and throughput, hung on that one lock's queue, varies
         twice as much between seeds. *)
      mix = { uniform with keys = 128; theta = 0.5 };
      clients = 16;
      route_by_shard = false;
      length = Time.sec 6;
      churn = false;
      seeds = 12;
    };
    {
      name = "sharded-batched";
      config =
        {
          platform with
          commit_protocol = Config.Paxos_commit { f = None };
          placement =
            Some
              (Rt_placement.Placement.create
                 ~map:(Rt_placement.Shard_map.hash ~shards:2)
                 ~sites:5 ~degree:3 ());
          group_commit_window = Time.us 75;
          batch_window = Some (Time.us 150);
        };
      (* Read-mostly, 80/20, over uniform keys.  Under Zipf 0.99 a seed's
         throughput hinges on how many lock-timeout convoys form on the
         hottest keys, which is hotspot-2pl's subject.  At 95/5 four
         operations in five transactions are read-only and all of those
         take exactly 0.2 ms, which pins the median. *)
      mix = { uniform with read_fraction = 0.8 };
      clients = 32;
      route_by_shard = true;
      length = Time.sec 1;
      churn = false;
      seeds = 8;
    };
    {
      name = "crash-churn";
      config =
        {
          platform with
          replica_control = Rt_replica.Replica_control.available_copies;
          commit_protocol =
            Config.Quorum_commit { commit_quorum = None; abort_quorum = None };
          checkpoint_every = 200;
        };
      mix = uniform;
      clients = 16;
      route_by_shard = false;
      length = Time.sec 3;
      churn = true;
      seeds = 7;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Host-only work the cluster runs never do: replay (Engine.fire drains
   and refills the heap), state fingerprinting, leaf audits.  A small
   crash scenario (1,552 executions, under a second) closed
   [explorer_closures] times, reporting the median closure; Paxos F=1
   scenarios do not close under any affordable budget.  The explorer's
   systems use a fixed seed. *)
let explorer_scenario = "2PC-PrC/crash"
let smoke_explorer_scenario = "2PC-PrC/conflict"
let explorer_closures = 4  (* at [base_seconds] *)
let explore_lap = 64  (* executions, about 40 host ms *)

(* --- one repetition --------------------------------------------------- *)

(* How a run summarizes a metric over its repetitions. *)
type agg =
  | Mean  (* deterministic per seed: the mean over derived seeds *)
  | Median  (* a host measure: the median repetition *)

type metric = { m_name : string; m_value : float; m_unit : string; m_agg : agg }

let metric ?(agg = Mean) m_name m_unit m_value = { m_name; m_value; m_unit; m_agg = agg }

type rep = {
  e2e : metric list;
  layers : metric list;  (* empty unless traced *)
  signature : string;
      (* Every virtual-time observable of the run, rendered: must be
         byte-identical across repetitions and traced/untraced runs. *)
  violations : string list;
  work : int;  (* committed transactions, or explored executions *)
}

let crash ?probe cluster i =
  match probe with
  | Some p -> Probe.crash p cluster i
  | None -> Cluster.crash_site cluster i

let recover ?probe cluster i =
  match probe with
  | Some p -> Probe.recover p cluster i
  | None -> Cluster.recover_site cluster i

let schedule_churn ?probe cluster ~length =
  let engine = Cluster.engine cluster in
  let rec go k =
    let at = Time.add (Time.ms 250) (k * Time.ms 500) in
    let back = Time.add at (Time.ms 150) in
    if Time.(back < length) then begin
      let site = 1 + (k mod 4) in
      ignore (Engine.schedule_at engine at (fun () -> crash ?probe cluster site));
      ignore
        (Engine.schedule_at engine back (fun () -> recover ?probe cluster site));
      go (k + 1)
    end
  in
  go 0

(* Run in 50ms steps until [ok] holds, for at most 5 virtual seconds. *)
let drain_until cluster ok =
  let t0 = Cluster.now cluster in
  let rec go k =
    ok ()
    || k * Time.ms 50 <= Time.sec 5
       && begin
         Cluster.run ~until:(Time.add t0 (k * Time.ms 50)) cluster;
         go (k + 1)
       end
  in
  go 1

(* The shared audit battery, with soak's convergence policy: byte-level
   convergence is promised only by runs without crashes.  Available
   copies under crashes leaves documented residual staleness (a detector
   lag acts as a brief partition; EXPERIMENTS.md).  Agreement and
   fork-freedom stay strict everywhere. *)
let audit ?probe w cluster =
  let run () = Audit.standard ~settle:(Time.sec 1) cluster in
  (match probe with Some p -> Probe.audit p cluster run | None -> run ())
  |> List.filter (fun { Audit.detail; _ } ->
         (not w.churn)
         || not (String.equal detail "replica stores diverge within a shard"))
  |> List.map (fun v -> Format.asprintf "%a" Audit.pp_violation v)

(* Whether [after] still holds every version [before] held: a restarted
   site may catch up past its old state but never fall behind it. *)
let keeps_versions ~before after =
  List.for_all
    (fun (key, (old : Rt_storage.Kv.item)) ->
      match Rt_storage.Kv.get after key with
      | Some now ->
          now.version > old.version
          || (now.version = old.version && String.equal now.value old.value)
      | None -> false)
    before

(* After the window: revive everyone, let the protocols go quiet, audit;
   then restart every site once, from its checkpoint and durable log
   alone, and check it lost no committed version. *)
let check ?probe w cluster =
  let sites = Cluster.sites cluster in
  Array.iteri
    (fun i s -> if not (Site.is_up s) then recover ?probe cluster i)
    sites;
  let quiet () = Audit.site_hygiene cluster = [] in
  if not (drain_until cluster quiet) then
    [ "termination: cluster not hygiene-clean 5s after the window" ]
  else
    let violations = audit ?probe w cluster in
    let lost =
      Array.to_list sites
      |> List.filter_map (fun s ->
             let i = Site.id s in
             let before = Rt_storage.Kv.snapshot (Site.kv s) in
             crash ?probe cluster i;
             recover ?probe cluster i;
             if not (drain_until cluster (fun () -> Site.serving s && quiet ()))
             then Some (Printf.sprintf "restart: site %d never served again" i)
             else if not (keeps_versions ~before (Site.kv s)) then
               Some (Printf.sprintf "restart: site %d lost committed state" i)
             else None)
    in
    violations @ lost

(* What the measurement window observed, frozen at its end: the checks
   that follow keep the cluster running. *)
type window = {
  length : Time.t;
  stats : Client.stats;
  lat : Sample.t;
  host : Host.meter;
  events : int;
  net : Rt_net.Net.Stats.t;
  counters : (string * int) list;
  forces : int;
  lost_cycles : int;
  counts : Probe.counts option;
}

let sum_sites cluster f =
  Array.fold_left (fun acc s -> acc + f s) 0 (Cluster.sites cluster)

let observe ?probe cluster fleet ~length ~host ~events =
  let net = Cluster.net_stats cluster in
  {
    length;
    stats = Client.total fleet;
    lat = Cluster.latencies cluster;
    host;
    events;
    net = { net with sent = net.sent };
    counters = Counter.to_assoc (Cluster.counters cluster);
    forces = sum_sites cluster Site.wal_forces;
    lost_cycles = sum_sites cluster (fun s -> (Site.wal_stats s).st_lost);
    counts = Option.map Probe.snapshot probe;
  }

let signature obs =
  let net = obs.net in
  String.concat " "
    (Printf.sprintf
       "events=%d committed=%d aborted=%d retries=%d lat=%d:%h:%h:%h \
        net=%d/%d/%d/%d/%d/%d forces=%d"
       obs.events obs.stats.committed obs.stats.aborted obs.stats.retries
       (Sample.count obs.lat) (Sample.total obs.lat)
       (Sample.percentile obs.lat 50.) (Sample.percentile obs.lat 99.) net.sent
       net.delivered net.dropped_link net.dropped_partition net.duplicated
       net.envelopes obs.forces
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) obs.counters)

let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

let e2e_metrics obs ~setup_s ~live_mb =
  let commits = fi obs.stats.committed in
  [
    metric "committed_per_s" "txn/s" (commits /. Time.to_float_s obs.length);
    metric "commit_p50_ms" "ms" (Sample.percentile obs.lat 50. *. 1e3);
    metric "commit_p99_ms" "ms" (Sample.percentile obs.lat 99. *. 1e3);
    metric "commit_ratio" "ratio"
      (commits /. fi (obs.stats.committed + obs.stats.aborted));
    metric ~agg:Median "host_us_per_commit" "us"
      (obs.host.scaled *. 1e6 /. commits);
    metric "alloc_words_per_commit" "words" (obs.host.words /. commits);
    metric "live_heap_mb" "MB" live_mb;
    metric ~agg:Median "setup_s" "s" setup_s;
  ]

let layer_metrics (p : Probe.t) (c : Probe.counts) obs ~ns_per_event =
  let per x = fi x /. fi obs.stats.committed in
  let counter name = Option.value ~default:0 (List.assoc_opt name obs.counters) in
  let attempts = fi (obs.stats.committed + obs.stats.aborted) in
  let host = metric ~agg:Median in
  [
    metric "engine.events_per_commit" "events/commit" (per obs.events);
    metric "engine.cancelled_share" "share"
      (ratio c.cancelled_sum (fi c.heap_samples));
    host "engine.ns_per_event" "ns/event" ns_per_event;
    metric "net.msgs_per_commit" "msgs/commit" (per obs.net.sent);
    metric "net.envelopes_per_commit" "envelopes/commit" (per obs.net.envelopes);
    metric "net.msgs_per_envelope" "msgs/envelope"
      (ratio (fi obs.net.sent) (fi obs.net.envelopes));
    metric "net.dropped_per_commit" "msgs/commit"
      (per (Rt_net.Net.Stats.dropped obs.net));
    metric "site.deliveries_per_commit" "deliv/commit" (per c.deliveries);
    host "site.receive_us_per_delivery" "us/delivery"
      (ratio (fi c.receive_ns /. 1e3) (fi c.deliveries));
    host "site.receive_share" "share"
      (ratio (fi c.receive_ns *. 1e-9) obs.host.wall);
    metric "site.receive_words_per_delivery" "words/delivery"
      (ratio (fi c.receive_words) (fi c.deliveries));
    metric "commit.protocol_msgs_per_commit" "msgs/commit"
      (per (counter "commit_protocol_msgs"));
    metric "commit.participant_steps_per_commit" "steps/commit"
      (per c.part_steps);
    metric "commit.blocked_reports" "reports" (fi (counter "blocked_reports"));
    metric "replica.data_msgs_per_commit" "msgs/commit"
      (per (counter "data_msgs"));
    metric "lock.timeouts_per_commit" "timeouts/commit"
      (per (counter "lock_timeouts"));
    metric "lock.deadlock_victims_per_commit" "victims/commit"
      (per (counter "deadlock_victims"));
    metric "wal.forces_per_commit" "forces/commit" (per obs.forces);
    metric "wal.requests_per_cycle" "requests/cycle"
      (ratio (fi c.force_requests) (fi c.force_cycles));
    metric "wal.force_wait_us" "us"
      (ratio (fi c.force_wait_ns /. 1e3) (fi c.force_waits));
    metric "wal.lost_cycles" "cycles" (fi obs.lost_cycles);
    (* Recovery and audit span the whole repetition: the post-window
       restart check recovers every site on every workload. *)
    metric "recovery.replayed_records" "records" (fi p.replayed);
    host "recovery.host_ms_per_recover" "ms"
      (ratio (fi p.recover_ns /. 1e6) (fi p.recoveries));
    metric "recovery.unavailable_ms" "ms"
      (ratio (fi p.unavailable_ns /. 1e6) (fi p.unavailable_n));
    metric "checkpoint.taken" "count" (fi (counter "checkpoints"));
    metric "client.retries_per_commit" "retries/commit" (per obs.stats.retries);
  ]
  @ List.map
      (fun reason ->
        let label = Site.abort_reason_label reason in
        metric
          (Printf.sprintf "client.aborts.%s_per_attempt" label)
          "aborts/attempt"
          (ratio (fi (counter ("aborts_" ^ label))) attempts))
      Site.
        [
          Unavailable;
          Lock_conflict;
          Deadlock;
          Order_conflict;
          Op_timeout;
          Protocol_abort;
          Site_down;
        ]
  @ [
      metric "client.commits" "count" (fi obs.stats.committed);
      host "audit.host_ms" "ms" (ratio (fi p.audit_ns /. 1e6) (fi p.audits));
    ]

(* The engine's own cost per event at a given queue size: [heap]
   self-rescheduling no-op events with random delays, run for a fixed
   number of firings. *)
let engine_ns_per_event ~heap =
  let e = Engine.create ~seed:1 () in
  let rng = Rt_sim.Rng.split (Engine.rng e) in
  let delay () = Time.ns (1 + Rt_sim.Rng.int rng 100_000) in
  let rec tick () = ignore (Engine.schedule_after e (delay ()) tick) in
  for _ = 1 to max 1 heap do
    ignore (Engine.schedule_after e (delay ()) tick)
  done;
  let firings = 200_000 in
  let (), m = Host.metered (fun () -> Engine.run ~max_events:firings e) in
  m.scaled *. 1e9 /. fi firings

let setup w ~seed =
  let cluster = Cluster.create { w.config with seed } in
  Cluster.populate cluster w.mix;
  let fleet =
    Client.start_fleet ~cluster ~clients:w.clients ~mix:w.mix
      ~route_by_shard:w.route_by_shard ()
  in
  (cluster, fleet)

(* Set-up is short (from under a millisecond to about 60), so each
   repetition times it several times from a compacted heap and keeps
   the median; the last cluster built is the one that runs. *)
let setups_per_rep = 3

let timed_setup w ~seed =
  let rec go k times =
    Gc.compact ();
    let built, m = Host.metered (fun () -> setup w ~seed) in
    let times = m.scaled :: times in
    if k = 1 then (built, Host.median times) else go (k - 1) times
  in
  go setups_per_rep []

(* The measured window runs in laps of this much virtual time (tens of
   host milliseconds), so that the meter follows the machine's speed.
   Stopping and resuming the engine changes nothing it does. *)
let lap = Time.ms 100

(* One repetition of workload [w] with the cluster seeded [seed]. *)
let run ?probe (w : t) ~seed ~smoke =
  let length = if smoke then Time.ms 100 else w.length in
  let (cluster, fleet), setup_s = timed_setup w ~seed in
  Option.iter (fun p -> Probe.attach p cluster) probe;
  if w.churn then schedule_churn ?probe cluster ~length;
  let engine = Cluster.engine cluster in
  let events0 = Engine.processed engine in
  let host = Host.start () in
  let rec go until =
    let until = Time.min length until in
    Cluster.run ~until cluster;
    Host.lap host;
    if Time.(until < length) then go (Time.add until lap)
  in
  go lap;
  let obs =
    observe ?probe cluster fleet ~length ~host
      ~events:(Engine.processed engine - events0)
  in
  let live_mb = Host.live_heap_mb () in
  List.iter Client.stop fleet;
  let violations = check ?probe w cluster in
  if obs.stats.committed = 0 then
    { e2e = []; layers = []; signature = "";
      violations = "no transaction committed" :: violations; work = 0 }
  else
    let layers =
      match (probe, obs.counts) with
      | Some p, Some c ->
          let heap =
            if c.heap_samples = 0 then 1 else c.heap_sum / c.heap_samples
          in
          layer_metrics p c obs ~ns_per_event:(engine_ns_per_event ~heap)
      | _ -> []
    in
    {
      e2e = e2e_metrics obs ~setup_s ~live_mb;
      layers;
      signature = signature obs;
      violations;
      work = obs.stats.committed;
    }

(* One closure of the explorer's reference scenario. *)
let explore ?probe ~smoke () =
  let name = if smoke then smoke_explorer_scenario else explorer_scenario in
  let sc =
    match Sweep.find_scenario name with
    | Some sc -> sc
    | None -> invalid_arg ("unknown explorer scenario " ^ name)
  in
  let make_sys =
    match probe with
    | Some p -> Probe.explore_sys p (Sweep.make_sys sc)
    | None -> Sweep.make_sys sc
  in
  Gc.compact ();
  (* The explorer builds its system once per execution: a lap every
     [explore_lap] executions. *)
  let host = Host.start () in
  let builds = ref 0 in
  let make_sys () =
    incr builds;
    if !builds mod explore_lap = 0 then Host.lap host;
    make_sys ()
  in
  let r = Explore.explore ~opts:(Sweep.opts_of sc ~sleep:true) make_sys in
  Host.lap host;
  let cpu = host.scaled and wall = host.wall in
  let st = r.r_stats in
  let violations =
    (if r.r_complete then [] else [ Printf.sprintf "explore: %s did not close" name ])
    @ List.concat_map
        (fun (lf : Explore.leaf_report) ->
          List.map
            (fun (inv, detail) ->
              Printf.sprintf "explore: %s: %s: %s" name inv detail)
            lf.lf_violations)
        r.r_violating
  in
  let layers =
    match probe with
    | None -> []
    | Some p ->
        let share ns = fi ns *. 1e-9 /. wall in
        let host = metric ~agg:Median in
        [
          metric "explore.executions" "count" (fi st.st_executions);
          metric "explore.states" "count" (fi st.st_states);
          metric "explore.dedup_hit_ratio" "share"
            (ratio (fi st.st_dedup_hits) (fi st.st_transitions));
          host "explore.execs_per_s" "execs/s" (fi st.st_executions /. cpu);
          host "explore.digest_share" "share" (share p.digest_ns);
          host "explore.audit_share" "share" (share p.x_audit_ns);
          host "explore.drain_share" "share" (share p.drain_ns);
          host "explore.replay_share" "share"
            (1. -. share (p.digest_ns + p.x_audit_ns + p.drain_ns));
          host "explore.digest_us_per_call" "us/call"
            (ratio (fi p.digest_ns /. 1e3) (fi p.digests));
        ]
  in
  {
    e2e = [ metric ~agg:Median "explore_cpu_s" "s" cpu ];
    layers;
    signature =
      Printf.sprintf "explore=%d/%d/%d/%d/%d" st.st_executions
        st.st_transitions st.st_states st.st_dedup_hits st.st_leaves;
    violations;
    work = st.st_executions;
  }
