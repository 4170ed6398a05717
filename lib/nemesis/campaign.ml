(* Campaign runner: schedule a fault scenario against a live cluster
   driven by a client fleet, then heal, drain, and run the shared
   invariant audit.  Everything is simulation-deterministic: same seed,
   same bytes. *)

open Rt_sim
open Rt_core
module Mix = Rt_workload.Mix

(* Safety envelopes, declared per cell before anything runs, from the
   protocol, the replica control and the fault plan alone (arms and
   reasons in campaign.mli and docs/NEMESIS.md).  Every other cell,
   Paxos Commit, ROWA and quorums included, is strict. *)
type excuse = Split_decision | Divergent_copies
type envelope = (string * excuse) list

let crashes_a_site =
  List.exists (function
    | _, Failure.(Crash _ | Torn_crash _ | Recrash _) -> true
    | _ -> false)

let safety_envelope ~protocol ~rc ~steps =
  let cuts = Scenario.cuts_reachability steps in
  (match protocol with
  | Config.Three_phase when cuts ->
      [
        ( "basic 3PC termination trusts its failure detector; severed \
           reachability can split the decision",
          Split_decision );
      ]
  | Config.Three_phase | Config.Two_phase _ | Config.Quorum_commit _
  | Config.Paxos_commit _ ->
      [])
  @
  if
    Rt_replica.Replica_control.trusts_failure_detector rc
    && (cuts || crashes_a_site steps)
  then
    [
      ( Printf.sprintf
          "%s trusts its failure detector; a site crash or cut it sees \
           late can leave a shard's copies diverged"
          (Rt_replica.Replica_control.name rc),
        Divergent_copies );
    ]
  else []

(* Split_decision sets aside agreement and durability findings (the
   decision split and its data-level shadows); Divergent_copies only the
   convergence finding.  Hygiene, termination and the rest stay strict
   in every cell. *)
let declared envelope =
  List.partition (fun (v : Audit.violation) ->
      List.exists
        (function
          | _, Split_decision -> v.inv = "agreement" || v.inv = "durability"
          | _, Divergent_copies -> v = Audit.divergence)
        envelope)

let default_scenarios =
  [
    Scenario.calm;
    Scenario.lossy ();
    Scenario.gray;
    Scenario.flapping;
    Scenario.one_way;
    Scenario.churn;
    Scenario.coordinator_faults;
  ]

(* Hash placement so the workload's keys spread over all shards (the
   crash sweep's range split is tuned to its two fixed keys). *)
let sharded_placement ~sites =
  Rt_placement.Placement.create
    ~map:(Rt_placement.Shard_map.hash ~shards:4)
    ~sites
    ~degree:(min 3 (sites - 1))
    ()

let default_placements ~sites =
  ("full", None)
  ::
  (if sites >= 4 then [ ("sharded", Some (sharded_placement ~sites)) ] else [])

type result = {
  r_scenario : string;
  r_protocol : string;
  r_placement : string;
  r_committed : int;
  r_aborted : int;
  r_retries : int;
  r_sent : int;
  r_dropped_link : int;
  r_dropped_partition : int;
  r_duplicated : int;
  r_torn : int;
      (* Torn WAL tails truncated by recovery's scan, summed over sites
         (cumulative across incarnations).  Always 0 with storage faults
         off. *)
  r_cp_fallbacks : int;
      (* Recoveries that found the latest checkpoint corrupt and fell
         back to the previous snapshot or a full log replay. *)
  r_drain : Time.t option;
      (* Heal-to-quiet time: how long after the last fault until every
         site is hygiene-clean.  [None] = never within the drain cap. *)
  r_violations : Audit.violation list;
  r_envelope : envelope;
      (* Decided from the fault plan, never from what the audit found. *)
  r_expected_divergence : Audit.violation list;
      (* Set aside by the envelope: printed loudly, not counted. *)
}

let drain_step = Time.ms 50
let drain_cap = Time.sec 5

let run_one ?(seed = 1) ?(sites = 5) ?(clients = 4) ?(duration = Time.ms 300)
    ?(keys = 48) ?(rc = Rt_replica.Replica_control.rowa) ?(tune = Fun.id)
    ~scenario ~protocol:(protocol_name, commit_protocol)
    ~placement:(placement_name, placement) () =
  let config =
    tune
      {
        (Config.default ~sites ()) with
        commit_protocol;
        replica_control = rc;
        placement;
        checkpoint_every = 50;
        seed;
      }
  in
  let cluster = Cluster.create config in
  let mix =
    { Mix.default with
      keys; read_fraction = 0.5; theta = 0.8; ops_per_txn = 3 }
  in
  Cluster.populate cluster mix;
  let fleet = Client.start_fleet ~cluster ~clients ~mix () in
  let steps = Scenario.steps scenario cluster ~duration in
  (* Envelope verdict first, from the fault plan alone. *)
  let envelope =
    safety_envelope ~protocol:config.commit_protocol
      ~rc:config.replica_control ~steps
  in
  Failure.schedule cluster steps;
  Cluster.run ~until:duration cluster;
  List.iter Client.stop fleet;
  (* End of the fault window: heal everything, revive everyone, then
     measure how long the protocols take to go quiet. *)
  List.iter (Failure.apply cluster)
    (Failure.Heal_partition :: Failure.Reset_links
    :: List.init sites (fun i -> Failure.Recover i));
  let t_heal = Cluster.now cluster in
  let rec drain k =
    let elapsed = k * drain_step in
    if elapsed > drain_cap then None
    else begin
      Cluster.run ~until:(Time.add t_heal elapsed) cluster;
      if Audit.site_hygiene cluster = [] then Some elapsed else drain (k + 1)
    end
  in
  let r_drain = drain 1 in
  let violations = Audit.standard ~settle:(Time.sec 1) cluster in
  let violations =
    match r_drain with
    | Some _ -> violations
    | None ->
        { Audit.inv = "termination";
          detail =
            Printf.sprintf "cluster not hygiene-clean %ds after heal"
              (drain_cap / Time.sec 1) }
        :: violations
  in
  let expected_divergence, violations = declared envelope violations in
  let stats = Client.total fleet in
  let net = Cluster.net_stats cluster in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 (Cluster.sites cluster) in
  ( {
      r_scenario = Scenario.name scenario;
      r_protocol = protocol_name;
      r_placement = placement_name;
      r_committed = stats.committed;
      r_aborted = stats.aborted;
      r_retries = stats.retries;
      r_sent = net.sent;
      r_dropped_link = net.dropped_link;
      r_dropped_partition = net.dropped_partition;
      r_duplicated = net.duplicated;
      r_torn = sum Site.torn_truncated;
      r_cp_fallbacks = sum Site.checkpoint_fallbacks;
      r_drain;
      r_violations = violations;
      r_envelope = envelope;
      r_expected_divergence = expected_divergence;
    },
    cluster )

let run ?seed ?sites:(n = 5) ?clients ?duration ?rc ?tune
    ?(scenarios = default_scenarios) ?placements () =
  let placements =
    match placements with
    | Some ps -> ps
    | None -> default_placements ~sites:n
  in
  List.concat_map
    (fun scenario ->
      List.concat_map
        (fun protocol ->
          List.map
            (fun placement ->
              fst
                (run_one ?seed ~sites:n ?clients ?duration ?rc ?tune ~scenario
                   ~protocol ~placement ()))
            placements)
        Rt_commit.Commit_protocol.all)
    scenarios

let pp_drain fmt = function
  | None -> Format.fprintf fmt "stuck"
  | Some d -> Format.fprintf fmt "%dms" (d / Time.ms 1)

let violation_lines results =
  List.concat_map
    (fun r ->
      List.map
        (fun v ->
          Format.asprintf "[%s %s %s] %a" r.r_scenario r.r_protocol
            r.r_placement Audit.pp_violation v)
        r.r_violations)
    results

let render_envelope r =
  let cell =
    Printf.sprintf "[%s %s %s]" r.r_scenario r.r_protocol r.r_placement
  in
  let headers =
    List.map
      (fun (reason, _) ->
        Printf.sprintf "!! OUTSIDE SAFETY ENVELOPE %s: %s\n" cell reason)
      r.r_envelope
  in
  let findings =
    match r.r_expected_divergence with
    | [] ->
        [
          "!!   no divergence observed this run (the envelope bound is \
           about possibility, not certainty)\n";
        ]
    | vs ->
        List.map
          (Format.asprintf "!!   divergence: %a\n" Audit.pp_violation)
          vs
  in
  if headers = [] then "" else String.concat "" (headers @ findings)

let render results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "| scenario | protocol | placement | committed | aborted | retries | \
     sent | lost link | lost part | dup | drain | violations |\n";
  Buffer.add_string buf "|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Format.asprintf "| %s | %s | %s | %d | %d | %d | %d | %d | %d | %d | %a | %d |\n"
           r.r_scenario r.r_protocol r.r_placement r.r_committed r.r_aborted
           r.r_retries r.r_sent r.r_dropped_link r.r_dropped_partition
           r.r_duplicated pp_drain r.r_drain
           (List.length r.r_violations)))
    results;
  let violation_lines = violation_lines results in
  Buffer.add_string buf
    (Printf.sprintf
       "\ntotal: %d runs, %d violations, %d cells outside the safety \
        envelope\n"
       (List.length results)
       (List.length violation_lines)
       (List.length (List.filter (fun r -> r.r_envelope <> []) results)));
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    violation_lines;
  List.iter (fun r -> Buffer.add_string buf (render_envelope r)) results;
  Buffer.contents buf

let total_violations results =
  List.fold_left (fun acc r -> acc + List.length r.r_violations) 0 results
