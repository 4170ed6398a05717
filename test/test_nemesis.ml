(* Nemesis scenario and campaign tests: the scenario DSL produces
   deterministic, well-formed step lists, and every commit protocol
   reaches a unanimous, audit-clean decision under message loss AND
   duplication, full and sharded.  These are the minimized cousins of
   the bin/nemesis.exe campaign (see docs/NEMESIS.md). *)

open Rt_sim
module Failure = Rt_core.Failure
module Scenario = Rt_nemesis.Scenario
module Campaign = Rt_nemesis.Campaign

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
  let steps = Scenario.steps s ~sites:3 ~duration:(Time.ms 100) in
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
  let steps = Scenario.steps s ~sites:4 ~duration:(Time.ms 250) in
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
  let a = Scenario.steps s ~sites:5 ~duration:(Time.ms 300) in
  let b = Scenario.steps s ~sites:5 ~duration:(Time.ms 300) in
  Alcotest.(check bool) "same steps" true (a = b)

(* --- lossy-link commit coverage -------------------------------------- *)

(* Every protocol must reach unanimous, audit-clean decisions with both
   drop > 0 and duplicate > 0 on every link, under a fixed seed, for
   full and sharded placements.  This is exactly the fault mix that
   historically leaked locks (duplicate data ops re-acquiring after
   resolution) and spun resend storms (lost decision acks never
   re-acked), so it runs in-tree, not only in the campaign binary. *)
let lossy_cell ~protocol ~placement () =
  let scenario = Scenario.lossy ~drop:0.05 ~duplicate:0.05 () in
  let r =
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
      ("lossy-commit", lossy_cases);
    ]
