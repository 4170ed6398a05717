(* Nemesis scenario and campaign tests: the scenario DSL produces
   deterministic, well-formed step lists, and every commit protocol
   reaches a unanimous, audit-clean decision under message loss AND
   duplication, full and sharded.  These are the minimized cousins of
   the bin/nemesis.exe campaign (see docs/NEMESIS.md). *)

open Rt_sim
module Failure = Rt_core.Failure
module Audit = Rt_core.Audit
module Config = Rt_core.Config
module RC = Rt_replica.Replica_control
module Scenario = Rt_nemesis.Scenario
module Campaign = Rt_nemesis.Campaign

let cluster sites = Rt_core.Cluster.create (Config.default ~sites ())

(* --- scenario DSL ---------------------------------------------------- *)

let test_steps_clipped_and_sorted () =
  let s =
    Scenario.make "test" (fun ~sites:_ ~duration ->
        [
          (Time.ms 90, Failure.Heal_partition);
          (Time.ms 10, Failure.Crash 0);
          (Time.ms (-5), Failure.Crash 1);
          (duration, Failure.Crash 2);
          (Time.ms 10, Failure.Recover 0);
        ])
  in
  let steps = Scenario.steps s (cluster 3) ~duration:(Time.ms 100) in
  Alcotest.(check int) "clipped to window" 3 (List.length steps);
  let times = List.map fst steps in
  Alcotest.(check bool) "sorted" true
    (List.sort Time.compare times = times);
  (* Stable: equal-time faults keep emission order. *)
  (match steps with
  | (_, Failure.Crash 0) :: (_, Failure.Recover 0) :: _ -> ()
  | _ -> Alcotest.fail "stable sort broke equal-time order")

let test_square_wave_faults_end_inside_window () =
  let s = Scenario.flapping in
  let steps = Scenario.steps s (cluster 4) ~duration:(Time.ms 250) in
  (* Two whole periods fit: on@0 off@50 on@100 off@150; the clipped third
     cycle (on@200 off@250) must not leave a dangling partition. *)
  let last_fault = snd (List.nth steps (List.length steps - 1)) in
  Alcotest.(check bool) "window ends healed" true
    (match last_fault with Failure.Heal_partition -> true | _ -> false)

let test_cuts_reachability () =
  let at f = [ (Time.zero, f) ] in
  Alcotest.(check bool) "sever cuts" true
    (Scenario.cuts_reachability (at (Failure.Sever [ (0, 1) ])));
  Alcotest.(check bool) "partition cuts" true
    (Scenario.cuts_reachability (at (Failure.Partition [ [ 0 ]; [ 1 ] ])));
  Alcotest.(check bool) "lossy does not" false
    (Scenario.cuts_reachability
       (at (Failure.Lossy { pairs = None; drop = 0.5; duplicate = 0.5 })));
  Alcotest.(check bool) "crash does not" false
    (Scenario.cuts_reachability (at (Failure.Crash 0)))

let test_scenario_steps_deterministic () =
  let s = Scenario.churn in
  let a = Scenario.steps s (cluster 5) ~duration:(Time.ms 300) in
  let b = Scenario.steps s (cluster 5) ~duration:(Time.ms 300) in
  Alcotest.(check bool) "same steps" true (a = b)

(* --- the safety envelope ---------------------------------------------- *)

let three_pc_reason =
  "basic 3PC termination trusts its failure detector; severed \
   reachability can split the decision"

let detector_reason rc =
  RC.name rc
  ^ " trusts its failure detector; a site crash or cut it sees late can \
     leave a shard's copies diverged"

let pra = Config.Two_phase Rt_commit.Two_pc.Presumed_abort

(* (protocol, replica control, scenario) -> the declared arms, each a
   reason and the class of findings it may set aside; [] is strict. *)
let envelope_table =
  let rowa_a = RC.available_copies and primary = RC.primary 0 in
  [
    (Config.Three_phase, RC.rowa, Scenario.flapping,
     [ (three_pc_reason, Campaign.Split_decision) ]);
    (Config.Three_phase, RC.rowa, Scenario.one_way,
     [ (three_pc_reason, Campaign.Split_decision) ]);
    (Config.Three_phase, RC.rowa, Scenario.churn, []);
    (Config.Three_phase, rowa_a, Scenario.flapping,
     [ (three_pc_reason, Campaign.Split_decision);
       (detector_reason rowa_a, Campaign.Divergent_copies) ]);
    (pra, rowa_a, Scenario.churn,
     [ (detector_reason rowa_a, Campaign.Divergent_copies) ]);
    (pra, primary, Scenario.churn,
     [ (detector_reason primary, Campaign.Divergent_copies) ]);
    (pra, rowa_a, Scenario.coordinator_faults,
     [ (detector_reason rowa_a, Campaign.Divergent_copies) ]);
    (pra, RC.rowa, Scenario.churn, []);
    (pra, RC.majority ~sites:5, Scenario.churn, []);
    (pra, rowa_a, Scenario.calm, []);
    (pra, rowa_a, Scenario.lossy (), []);
    (pra, rowa_a, Scenario.gray, []);
  ]

let test_envelope_table () =
  let excuse = function
    | Campaign.Split_decision -> "split decision"
    | Campaign.Divergent_copies -> "divergent copies"
  in
  let c = cluster 5 in
  List.iter
    (fun (protocol, rc, scenario, expected) ->
      let steps = Scenario.steps scenario c ~duration:(Time.ms 300) in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "%s over %s under %s"
           (Rt_commit.Commit_protocol.name protocol)
           (RC.name rc) (Scenario.name scenario))
        (List.map (fun (reason, e) -> (reason, excuse e)) expected)
        (List.map
           (fun (reason, e) -> (reason, excuse e))
           (Campaign.safety_envelope ~protocol ~rc ~steps)))
    envelope_table

(* A declared ROWA-A cell may set aside only the convergence finding: a
   forked key and an unresolved participant are still violations. *)
let test_declared_cell_keeps_other_findings () =
  let steps =
    Scenario.steps Scenario.churn (cluster 5) ~duration:(Time.ms 300)
  in
  let envelope =
    Campaign.safety_envelope ~protocol:pra ~rc:RC.available_copies ~steps
  in
  let fork = { Audit.inv = "agreement"; detail = "1 forked keys (split brain!)" }
  and unresolved =
    { Audit.inv = "termination"; detail = "site 1: 1 unresolved participants" }
  in
  let set_aside, kept =
    Campaign.declared envelope [ fork; unresolved; Audit.divergence ]
  in
  let lines = List.map (Format.asprintf "%a" Audit.pp_violation) in
  Alcotest.(check (list string)) "only convergence set aside"
    (lines [ Audit.divergence ]) (lines set_aside);
  Alcotest.(check (list string)) "fork and unresolved kept"
    (lines [ fork; unresolved ]) (lines kept)

(* --- lossy-link commit coverage -------------------------------------- *)

(* Every protocol must reach unanimous, audit-clean decisions with both
   drop > 0 and duplicate > 0 on every link, under a fixed seed, for
   full and sharded placements.  This is exactly the fault mix that
   historically leaked locks (duplicate data ops re-acquiring after
   resolution) and spun resend storms (lost decision acks never
   re-acked), so it runs in-tree, not only in the campaign binary. *)
let lossy_cell ~protocol ~placement () =
  let scenario = Scenario.lossy ~drop:0.05 ~duplicate:0.05 () in
  let r, _ =
    Campaign.run_one ~seed:7 ~sites:5 ~clients:3 ~duration:(Time.ms 200)
      ~scenario ~protocol ~placement ()
  in
  Alcotest.(check (list string)) "no audit violations" []
    (List.map
       (fun v -> Format.asprintf "%a" Rt_core.Audit.pp_violation v)
       r.Campaign.r_violations);
  Alcotest.(check bool) "made progress" true
    (r.Campaign.r_committed + r.Campaign.r_aborted > 0);
  Alcotest.(check bool) "faults actually fired" true
    (r.Campaign.r_dropped_link > 0 && r.Campaign.r_duplicated > 0);
  Alcotest.(check bool) "drained after heal" true
    (r.Campaign.r_drain <> None)

let lossy_cases =
  List.concat_map
    (fun protocol ->
      List.map
        (fun placement ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s under loss+dup" (fst protocol)
               (fst placement))
            `Slow
            (lossy_cell ~protocol ~placement))
        (Campaign.default_placements ~sites:5))
    Rt_commit.Commit_protocol.all

let () =
  Alcotest.run "nemesis"
    [
      ( "scenario-dsl",
        [
          Alcotest.test_case "steps clipped and sorted" `Quick
            test_steps_clipped_and_sorted;
          Alcotest.test_case "square wave ends inside window" `Quick
            test_square_wave_faults_end_inside_window;
          Alcotest.test_case "cuts-reachability classification" `Quick
            test_cuts_reachability;
          Alcotest.test_case "steps deterministic" `Quick
            test_scenario_steps_deterministic;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "declared per protocol, replica control and \
                              scenario" `Quick test_envelope_table;
          Alcotest.test_case "declared cell keeps other findings" `Quick
            test_declared_cell_keeps_other_findings;
        ] );
      ("lossy-commit", lossy_cases);
    ]
