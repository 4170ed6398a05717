(* Cluster harness for the explorer: small-scope scenarios (N = 3, one or
   two transactions, all six commit protocols, full and two-shard
   placements, optional crash injection), the standard sweep matrix, and
   the byte-stable report `make explore` regenerates.  The matrix is
   strict: every invariant violation counts, with no expected-violation
   carve-outs.

   Every scenario runs twice — sleep sets on and off, both with state
   dedup — so the reported reduction factor isolates the partial-order
   reduction.  All randomness is neutralized: fixed link latency, no
   drops, a fixed seed, and a heartbeat interval far beyond the horizon
   (the t = 0 beat burst is drained before exploration starts, and the
   re-arm events carry the [Recurring] label the explorer never fires). *)

open Rt_sim
open Rt_core

type crash_spec = {
  cr_sites : int list;
  cr_points : string list;  (* empty = every announced point *)
  cr_budget : int;
}

type scenario = {
  sc_name : string;
  sc_protocol : Config.commit_protocol;
  sc_sharded : bool;
  sc_batched : bool;
      (* WAL group commit + link batching on: the flush-window timers and
         envelope deliveries become schedule choices. *)
  sc_txns : (int * Rt_workload.Mix.op list) list;  (* (origin, ops) *)
  sc_crash : crash_spec option;
  sc_max_executions : int;
}

let sites = 3
let recover_after = Time.ms 100
let drain_horizon = Time.sec 3
let settle = Time.sec 1

(* Two range shards split at "b" over three sites, degree 2: shard 0
   ("a") on {0,1}, shard 1 ("b") on {1,2} — genuinely partial, with the
   coordinator replicating only one shard. *)
let sharded_placement () =
  Rt_placement.Placement.create
    ~map:(Rt_placement.Shard_map.range ~boundaries:[ "b" ])
    ~sites ~degree:2 ()

let config_of sc =
  (if sc.sc_batched then Config.batched else Fun.id)
    {
      (Config.default ~sites ()) with
      commit_protocol = sc.sc_protocol;
      placement = (if sc.sc_sharded then Some (sharded_placement ()) else None);
      link = Rt_net.Net.reliable_link (Rt_net.Latency.Fixed (Time.us 10));
      heartbeat_interval = Time.sec 3600;
      seed = 0;
    }

let writes_of ops =
  List.filter_map
    (function Rt_workload.Mix.Write (k, v) -> Some (k, v) | _ -> None)
    ops

(* --- the Explore.sys for a scenario ----------------------------------- *)

let make_sys sc () =
  let config = config_of sc in
  let cluster = Cluster.create config in
  let engine = Cluster.engine cluster in
  let net = Cluster.net cluster in
  (* Drain the t=0 heartbeat burst so exploration starts from a settled
     view; the next ticks are an hour out. *)
  Cluster.run ~until:(Time.us 100) cluster;
  let n_txns = List.length sc.sc_txns in
  let outcomes = Array.make (max 1 n_txns) None in
  let committed_writes () =
    (* A transaction's writes count as durable obligations once any site
       recorded a commit decision for it.  Transactions are matched to
       submissions by origin site (scenarios use distinct origins). *)
    let committed_origin o =
      Array.exists
        (fun site ->
          List.exists
            (fun ((txn : Rt_types.Ids.Txn_id.t), d) ->
              txn.origin = o && d = Rt_commit.Protocol.Commit)
            (Site.decided_txns site))
        (Cluster.sites cluster)
    in
    List.concat_map
      (fun (origin, ops) ->
        if committed_origin origin then writes_of ops else [])
      sc.sc_txns
  in
  (* Each envelope is rendered once, keyed by its delivery event's seq:
     seqs are unique within this system and messages are immutable.  The
     explorer classifies every pending envelope at every decision. *)
  let rendered = Hashtbl.create 64 in
  let render seq msgs =
    match Hashtbl.find_opt rendered seq with
    | Some s -> s
    | None ->
        let s =
          String.concat "," (List.map (Format.asprintf "%a" Msg.pp) msgs)
        in
        Hashtbl.replace rendered seq s;
        s
  in
  {
    Explore.ys_engine = engine;
    ys_start =
      (fun () ->
        List.iteri
          (fun i (origin, ops) ->
            Cluster.submit cluster ~site:origin ~ops ~k:(fun o ->
                outcomes.(i) <- Some o))
          sc.sc_txns);
    ys_digest =
      (fun () ->
        let b = Buffer.create 8192 in
        Array.iter
          (fun s ->
            Buffer.add_string b (Site.dump s);
            Buffer.add_char b '\n')
          (Cluster.sites cluster);
        (* In-flight messages, canonicalized per FIFO link: sort by
           (src, dst) and keep engine order within a link (= send
           order); the seq itself stays out of the digest. *)
        Rt_net.Net.in_flight net
        |> List.stable_sort (fun (_, s1, d1, _) (_, s2, d2, _) ->
               match Int.compare s1 s2 with 0 -> Int.compare d1 d2 | c -> c)
        |> List.iter (fun (seq, src, dst, msgs) ->
               Printf.bprintf b "%d>%d:%s;" src dst (render seq msgs));
        (* Raw text, not a hash: the explorer hashes the composite
           digest itself, and replay exposes this text for
           counterexample inspection. *)
        Buffer.contents b);
    ys_delivery_class =
      (fun ~seq ->
        match Rt_net.Net.find_in_flight net ~seq with
        | Some (_, _, [ (m : Msg.t) ]) when m.payload = Msg.Heartbeat ->
            Explore.Eager
        | Some (_, _, msgs) -> Explore.Choice (render seq msgs)
        | None -> Explore.Choice "?");
    ys_crash_ok =
      (fun ~site ~point ->
        match sc.sc_crash with
        | None -> false
        | Some cr ->
            List.mem site cr.cr_sites
            && (cr.cr_points = [] || List.mem point cr.cr_points)
            && Site.is_up (Cluster.site cluster site));
    ys_crash =
      (fun ~site ->
        Cluster.crash_site cluster site;
        ignore
          (Engine.schedule_after
             ~label:(Engine.Timer { site; name = "recover" })
             engine recover_after
             (fun () ->
               if not (Site.is_up (Cluster.site cluster site)) then
                 Cluster.recover_site cluster site)));
    ys_drain =
      (fun () ->
        Cluster.run ~until:(Time.add (Engine.now engine) drain_horizon) cluster);
    ys_audit =
      (fun () ->
        let termination =
          List.concat
            (List.mapi
               (fun i (origin, _) ->
                 match outcomes.(i) with
                 | Some _ -> []
                 | None ->
                     [
                       ( "termination",
                         Printf.sprintf
                           "txn submitted at site %d never reached an outcome"
                           origin );
                     ])
               sc.sc_txns)
        in
        let writes = committed_writes () in
        let audit =
          Audit.standard ~writes ~settle cluster
          |> List.map (fun (v : Audit.violation) -> (v.inv, v.detail))
        in
        termination @ audit);
  }

(* Infrastructure timers whose interleavings the explorer leaves to the
   deterministic leaf drain: client-round timeouts and background sweeps
   fire against every protocol stage and multiply the space by an order
   of magnitude without touching the commit protocol's own decision
   structure.  Protocol timers (the commit machines' timeouts) and crash
   recovery remain explorable choices.  The WAL device completes
   eagerly, inside the enclosing macro step: a slow force is observable
   only through the timing of the messages it gates — and message timing
   is explored directly — while durability nondeterminism is explored
   through crash decisions at the force-boundary crash points.  This is
   a documented scope bound, not a soundness claim: nemesis and soak
   cover the excluded timers under randomized schedules. *)
let pending_timers =
  [ "orphan-sweep"; "op-timeout"; "lock-wait"; "catchup-retry"; "gc" ]

let opts_of sc ~sleep =
  {
    Explore.default_opts with
    op_sleep = sleep;
    (* One timeout injection per schedule, CHESS-style bounded: every
       single-untimely-fire behaviour is covered exhaustively, while the
       pairwise cross-product (measured 20x the states, past any closable
       budget) is left to nemesis's randomized timer chaos. *)
    op_timer_total = 1;
    op_timer_class =
      (fun ~site:_ ~name ->
        if name = "wal-device" then `Eager
        else if List.mem name pending_timers then `Pending
        else `Choice);
    op_crash_budget =
      (match sc.sc_crash with None -> 0 | Some cr -> cr.cr_budget);
    op_max_executions = sc.sc_max_executions;
  }

(* --- scenario matrix --------------------------------------------------- *)

(* One replicated write: under ROWA every site is a write participant,
   which is what the durability invariant needs, at the smallest depth
   the commit protocol admits.  The cross-shard scenarios add a second
   key so the transaction genuinely spans both shards. *)
let full_txn = [ Rt_workload.Mix.Write ("a", "1") ]
let shard_txn =
  [ Rt_workload.Mix.Write ("a", "1"); Rt_workload.Mix.Write ("b", "2") ]

let scenario ?(sharded = false) ?(batched = false) ?crash
    ?(max_executions = 50_000) ~name ~protocol ~txns () =
  {
    sc_name = name;
    sc_protocol = protocol;
    sc_sharded = sharded;
    sc_batched = batched;
    sc_txns = txns;
    sc_crash = crash;
    sc_max_executions = max_executions;
  }

let default_matrix () =
  List.concat_map
    (fun (pname, protocol) ->
      (* Paxos Commit at N = 3 runs F = 1: per-vote consensus instances
         over three acceptors plus leader usurpation, a state space that
         does not close under any affordable budget (50k executions
         reach depth ~46 with the frontier still widening).  The sweep
         stays strict — every violation in the explored prefix counts —
         but caps the budget so `make explore` stays in CI range; the
         report marks these rows `complete = no`. *)
      let max_executions =
        match protocol with
        | Config.Paxos_commit _ -> 15_000
        | Config.Two_phase _ | Config.Three_phase | Config.Quorum_commit _ ->
            50_000
      in
      [
        (* One distributed write transaction, full replication. *)
        scenario ~max_executions
          ~name:(pname ^ "/full")
          ~protocol
          ~txns:[ (0, full_txn) ]
          ();
        (* Same transaction across two partial shards. *)
        scenario ~sharded:true ~max_executions
          ~name:(pname ^ "/shard2")
          ~protocol
          ~txns:[ (0, shard_txn) ]
          ();
        (* Two conflicting writers from different origins. *)
        scenario ~max_executions
          ~name:(pname ^ "/conflict")
          ~protocol
          ~txns:
            [
              (0, [ Rt_workload.Mix.Write ("a", "1") ]);
              (1, [ Rt_workload.Mix.Write ("a", "2") ]);
            ]
          ();
        (* One transaction with a single coordinator crash at a
           log-force boundary, recovery explored as a schedule choice. *)
        scenario ~max_executions
          ~name:(pname ^ "/crash")
          ~protocol
          ~txns:[ (0, full_txn) ]
          ~crash:
            {
              cr_sites = [ 0 ];
              cr_points = [ "wal:force-volatile"; "wal:force-durable" ];
              cr_budget = 1;
            }
          ();
        (* Two conflicting writers with group commit and batching on:
           wal-flush and net-flush timers interleave with envelope
           deliveries, and a shared flush must still release each
           continuation only after the covering cycle is durable. *)
        scenario ~batched:true ~max_executions
          ~name:(pname ^ "/conflict+gcb")
          ~protocol
          ~txns:
            [
              (0, [ Rt_workload.Mix.Write ("a", "1") ]);
              (1, [ Rt_workload.Mix.Write ("a", "2") ]);
            ]
          ();
        (* Coordinator crash at the (group-commit) force boundaries with
           batching on: the moved boundaries stay recoverable. *)
        scenario ~batched:true ~max_executions
          ~name:(pname ^ "/crash+gcb")
          ~protocol
          ~txns:[ (0, full_txn) ]
          ~crash:
            {
              cr_sites = [ 0 ];
              cr_points = [ "wal:force-volatile"; "wal:force-durable" ];
              cr_budget = 1;
            }
          ();
      ])
    Rt_commit.Commit_protocol.all

let find_scenario name =
  List.find_opt (fun sc -> sc.sc_name = name) (default_matrix ())

(* --- running and reporting --------------------------------------------- *)

type row = {
  rw_scenario : scenario;
  rw_sleep : Explore.result;
  rw_nosleep : Explore.result;
  rw_counterexamples : (int list * string list * (string * string) list) list;
      (* minimized schedule, trace, violations *)
  rw_violations : int;
      (* Every violation the sweep found.  The matrix is strict: there is
         no expected-violation filter, and any nonzero total fails. *)
}

let run_scenario sc =
  let sleep = Explore.explore ~opts:(opts_of sc ~sleep:true) (make_sys sc) in
  let nosleep =
    Explore.explore ~opts:(opts_of sc ~sleep:false) (make_sys sc)
  in
  let counterexamples =
    (* Minimize and re-derive each distinct violation (cap 3). *)
    let take3 = List.filteri (fun i _ -> i < 3) sleep.r_violating in
    List.map
      (fun (lr : Explore.leaf_report) ->
        let opts = opts_of sc ~sleep:true in
        let min_sched =
          Explore.minimize ~opts (make_sys sc) lr.lf_schedule
        in
        let out = Explore.follow ~opts (make_sys sc) min_sched in
        let vs =
          if out.rp_violations <> [] then out.rp_violations
          else lr.lf_violations
        in
        (min_sched, out.rp_trace, vs))
      take3
  in
  let violations =
    List.concat_map
      (fun (lr : Explore.leaf_report) -> lr.lf_violations)
      sleep.r_violating
    |> List.length
  in
  { rw_scenario = sc; rw_sleep = sleep; rw_nosleep = nosleep;
    rw_counterexamples = counterexamples; rw_violations = violations }

let reduction_factor row =
  let s = row.rw_sleep.r_stats.st_executions in
  let n = row.rw_nosleep.r_stats.st_executions in
  if s = 0 then (1.0, false)
  else (float_of_int n /. float_of_int s, not row.rw_nosleep.r_complete)

let pp_schedule fmt sched =
  Format.fprintf fmt "[%s]"
    (String.concat "," (List.map string_of_int sched))

let render_report fmt rows =
  Format.fprintf fmt "# Schedule exploration (rt_explore)\n\n";
  Format.fprintf fmt
    "N=%d sites, deterministic config (fixed 10us links, no drops, seed 0).\n\
     Each scenario explored twice: sleep sets on and off, both with\n\
     canonical-state dedup.  `reduction` = executions(no-sleep) /\n\
     executions(sleep); prefixed `>=` when the no-sleep run hit its\n\
     execution budget.  Regenerate with `make explore`.\n\n"
    sites;
  Format.fprintf fmt
    "| scenario | execs | states | dedup | sleep-cut | leaves | depth | \
     complete | no-sleep execs | reduction | violations |\n";
  Format.fprintf fmt "|---|---|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun row ->
      let s = row.rw_sleep.r_stats in
      let n = row.rw_nosleep.r_stats in
      let factor, capped = reduction_factor row in
      Format.fprintf fmt
        "| %s | %d | %d | %d | %d | %d | %d | %s | %d | %s%.2f | %d |\n"
        row.rw_scenario.sc_name s.st_executions s.st_states s.st_dedup_hits
        s.st_sleep_prunes s.st_leaves s.st_max_depth
        (if row.rw_sleep.r_complete then "yes" else "no")
        n.st_executions
        (if capped then ">=" else "")
        factor
        (List.length row.rw_sleep.r_violating))
    rows;
  let violating = List.filter (fun r -> r.rw_counterexamples <> []) rows in
  if violating <> [] then begin
    Format.fprintf fmt "\n## Counterexamples\n";
    List.iter
      (fun row ->
        List.iter
          (fun (sched, trace, vs) ->
            Format.fprintf fmt "\n### %s %a\n\n" row.rw_scenario.sc_name
              pp_schedule sched;
            Format.fprintf fmt
              "Replay: `dune exec bin/explore.exe -- --replay %s --schedule \
               %s`\n\n"
              row.rw_scenario.sc_name
              (String.concat "," (List.map string_of_int sched));
            List.iter
              (fun (inv, detail) ->
                Format.fprintf fmt "- **%s**: %s\n" inv detail)
              vs;
            Format.fprintf fmt "\nDecisions:\n\n";
            List.iter (fun l -> Format.fprintf fmt "    %s\n" l) trace)
          row.rw_counterexamples)
      violating
  end;
  let total_violations =
    List.fold_left (fun a r -> a + r.rw_violations) 0 rows
  in
  Format.fprintf fmt "\n%d violation(s).\n" total_violations;
  total_violations

let run_matrix ?(filter = fun _ -> true) ?budget fmt =
  let clamp sc =
    match budget with
    | None -> sc
    | Some b -> { sc with sc_max_executions = b }
  in
  let rows =
    default_matrix () |> List.filter filter |> List.map clamp
    |> List.map run_scenario
  in
  render_report fmt rows
