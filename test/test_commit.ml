(* Tests for the atomic-commitment machines: happy paths, presumption
   variants' cost profiles, crash/recovery schedules, and the agreement
   property under randomized schedules with failures. *)

open Rt_commit
open Protocol

(* Thresholds at their defaults, which resolve over each run's site
   count (majority quorums, the largest Paxos F). *)
let all_protos = List.map snd Commit_protocol.all

let check_commit_unanimous proto () =
  let sites = 3 in
  let votes = Array.make sites true in
  let o = Sandbox.run_fifo ~proto ~sites ~votes () in
  Alcotest.(check bool) "all decided" true o.all_decided;
  Alcotest.(check bool) "agreement" true o.agreement;
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "committed" true (decision_equal d Commit))
    o.decisions;
  Alcotest.(check int) "three sites decided" 3 (List.length o.decisions)

let check_abort_on_no proto () =
  let sites = 3 in
  let votes = [| true; false; true |] in
  let o = Sandbox.run_fifo ~proto ~sites ~votes () in
  Alcotest.(check bool) "all decided" true o.all_decided;
  Alcotest.(check bool) "agreement" true o.agreement;
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "aborted" true (decision_equal d Abort))
    o.decisions

(* Classical cost profile: presumed-commit saves the commit-case acks,
   presumed-abort saves the abort-case round entirely. *)
let test_commit_costs () =
  let sites = 3 in
  let votes = Array.make sites true in
  let run proto = Sandbox.run_fifo ~proto ~sites ~votes () in
  let prn = run (Commit_protocol.Two_phase Two_pc.Presumed_nothing) in
  let pra = run (Commit_protocol.Two_phase Two_pc.Presumed_abort) in
  let prc = run (Commit_protocol.Two_phase Two_pc.Presumed_commit) in
  (* Cross-site messages with coordinator at site 0 and 2 remote
     participants: PrN/PrA commit = 4 rounds x 2 remotes = 8; PrC drops
     the ack round = 6. *)
  Alcotest.(check int) "PrN messages" 8 prn.messages;
  Alcotest.(check int) "PrA messages" 8 pra.messages;
  Alcotest.(check int) "PrC messages" 6 prc.messages;
  (* Forced writes, commit case: PrN/PrA: coordinator decision + per-site
     prepared + decision = 1 + 3*2 = 7.  PrC adds the collecting record
     but makes participant commit records lazy: 1 + 1 + 3 prepared + 3
     commit(lazy) -> forced = 2 + 3 + coordinator's own participant
     decision... counted exactly below. *)
  Alcotest.(check int) "PrN forced" 7 prn.forced_writes;
  Alcotest.(check int) "PrA forced" 7 pra.forced_writes;
  Alcotest.(check int) "PrC forced" 5 prc.forced_writes;
  (* Abort costs: PrA's abort should be strictly cheaper than PrN's. *)
  let votes_no = [| true; false; true |] in
  let prn_a =
    Sandbox.run ~proto:(Commit_protocol.Two_phase Two_pc.Presumed_nothing)
      ~sites ~votes:votes_no ()
  in
  let pra_a =
    Sandbox.run ~proto:(Commit_protocol.Two_phase Two_pc.Presumed_abort) ~sites
      ~votes:votes_no ()
  in
  Alcotest.(check bool) "PrA abort cheaper (messages)" true
    (pra_a.messages <= prn_a.messages);
  Alcotest.(check bool) "PrA abort cheaper (forces)" true
    (pra_a.forced_writes < prn_a.forced_writes)

(* Coordinator crash right after start: 2PC participants that prepared
   stay blocked until recovery; 3PC terminates without the coordinator. *)
let test_2pc_blocks_on_coordinator_crash () =
  let proto = Commit_protocol.Two_phase Two_pc.Presumed_abort in
  let sites = 3 in
  let votes = Array.make sites true in
  (* Crash the coordinator after enough steps that vote-reqs went out and
     participants prepared; never recover. *)
  let o = Sandbox.run ~seed:1 ~crashes:[ (0, 8) ] ~max_steps:400 ~proto ~sites ~votes () in
  Alcotest.(check bool) "agreement holds" true o.agreement;
  (* Participants must either have decided consistently (crash hit before
     any prepared) or be blocked. *)
  if not o.all_decided then
    Alcotest.(check bool) "blocked reported" true o.blocked

let test_2pc_unblocks_on_recovery () =
  let proto = Commit_protocol.Two_phase Two_pc.Presumed_abort in
  let sites = 3 in
  let votes = Array.make sites true in
  let o =
    Sandbox.run ~seed:2 ~crashes:[ (0, 8) ] ~recoveries:[ (0, 60) ]
      ~max_steps:2000 ~proto ~sites ~votes ()
  in
  Alcotest.(check bool) "agreement" true o.agreement;
  Alcotest.(check bool) "all decided after recovery" true o.all_decided

let test_3pc_nonblocking_on_coordinator_crash () =
  let sites = 3 in
  let votes = Array.make sites true in
  (* Whatever the crash point, surviving 3PC participants decide. *)
  for k = 1 to 30 do
    let o =
      Sandbox.run ~seed:k ~crashes:[ (0, k) ] ~max_steps:2000
        ~proto:Commit_protocol.Three_phase ~sites ~votes ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "agreement at crash point %d" k)
      true o.agreement;
    Alcotest.(check bool)
      (Printf.sprintf "3PC decided at crash point %d" k)
      true o.all_decided
  done

(* Agreement under randomized schedules and random crash points, across
   every protocol.  This is the core safety property. *)
let prop_agreement =
  let gen =
    QCheck.Gen.(
      let* sites = int_range 2 5 in
      let* votes = array_repeat sites bool in
      let* seed = int_range 0 10_000 in
      let* n_crashes = int_range 0 2 in
      let* crashes =
        list_repeat n_crashes
          (pair (int_range 0 (sites - 1)) (int_range 0 60))
      in
      let* recover = bool in
      let recoveries =
        if recover then List.map (fun (s, k) -> (s, k + 80)) crashes else []
      in
      return (sites, votes, seed, crashes, recoveries))
  in
  let arb =
    QCheck.make gen ~print:(fun (sites, votes, seed, crashes, _) ->
        Printf.sprintf "sites=%d votes=[%s] seed=%d crashes=[%s]" sites
          (String.concat ";"
             (Array.to_list (Array.map string_of_bool votes)))
          seed
          (String.concat ";"
             (List.map (fun (s, k) -> Printf.sprintf "%d@%d" s k) crashes)))
  in
  QCheck.Test.make ~name:"commit protocols: agreement under crashes"
    ~count:300 arb (fun (sites, votes, seed, crashes, recoveries) ->
      List.for_all
        (fun proto ->
          let o =
            Sandbox.run ~seed ~crashes ~recoveries ~max_steps:3000 ~proto
              ~sites ~votes ()
          in
          o.agreement)
        all_protos)

(* Validity: a No vote means nobody commits; unanimous Yes with no
   failures means everybody commits. *)
let prop_validity =
  let gen =
    QCheck.Gen.(
      let* sites = int_range 2 5 in
      let* votes = array_repeat sites bool in
      let* seed = int_range 0 10_000 in
      return (sites, votes, seed))
  in
  let arb =
    QCheck.make gen ~print:(fun (sites, votes, seed) ->
        Printf.sprintf "sites=%d votes=[%s] seed=%d" sites
          (String.concat ";" (Array.to_list (Array.map string_of_bool votes)))
          seed)
  in
  QCheck.Test.make ~name:"commit protocols: validity (failure-free)"
    ~count:300 arb (fun (sites, votes, seed) ->
      let unanimous = Array.for_all (fun v -> v) votes in
      List.for_all
        (fun proto ->
          let o = Sandbox.run ~seed ~max_steps:3000 ~proto ~sites ~votes () in
          o.all_decided && o.agreement
          &&
          match o.decisions with
          | [] -> false
          | (_, d) :: _ ->
              if unanimous then decision_equal d Commit
              else decision_equal d Abort)
        all_protos)

(* Quorum commit: with a majority of sites crashed, the survivors block
   rather than decide (no split-brain); with a majority alive they
   decide. *)
let test_qc_minority_blocks () =
  let sites = 5 in
  let votes = Array.make sites true in
  let proto =
    Commit_protocol.Quorum_commit
      { commit_quorum = Some 3; abort_quorum = Some 3 }
  in
  (* Crash three sites early, leaving 2 < quorum.  Depending on the crash
     point survivors may or may not have decided first; if they have not,
     they must remain undecided (blocked), never decide inconsistently. *)
  let o =
    Sandbox.run ~seed:7
      ~crashes:[ (0, 10); (1, 10); (2, 10) ]
      ~max_steps:1500 ~proto ~sites ~votes ()
  in
  Alcotest.(check bool) "agreement" true o.agreement

(* --- read-only optimization ------------------------------------------ *)

let test_read_only_optimization_costs () =
  let sites = 3 in
  let votes = Array.make sites true in
  let proto = Commit_protocol.Two_phase Two_pc.Presumed_abort in
  (* Site 2 performed no writes. *)
  let ro = [| false; false; true |] in
  let base = Sandbox.run_fifo ~proto ~sites ~votes () in
  let opt = Sandbox.run ~read_only:ro ~proto ~sites ~votes () in
  Alcotest.(check bool) "optimized run decides" true opt.all_decided;
  Alcotest.(check bool) "agreement" true opt.agreement;
  (* The read-only site saves its decision round (2 messages) and both
     its forced records (prepared + commit). *)
  Alcotest.(check int) "two messages saved" (base.messages - 2) opt.messages;
  Alcotest.(check int) "two forces saved" (base.forced_writes - 2)
    opt.forced_writes

let test_all_read_only_commits_free () =
  let sites = 3 in
  let votes = Array.make sites true in
  let ro = Array.make sites true in
  let o =
    Sandbox.run ~read_only:ro
      ~proto:(Commit_protocol.Two_phase Two_pc.Presumed_abort) ~sites ~votes ()
  in
  Alcotest.(check bool) "decides" true o.all_decided;
  (* Only the vote round remains: 2 requests + 2 read-only votes from the
     remote sites; no forced writes anywhere. *)
  Alcotest.(check int) "vote round only" 4 o.messages;
  Alcotest.(check int) "no forces" 0 o.forced_writes

let prop_read_only_agreement =
  QCheck.Test.make ~name:"read-only optimization preserves agreement"
    ~count:200
    QCheck.(triple (int_range 2 5) (int_range 0 10_000) (int_range 0 31))
    (fun (sites, seed, ro_mask) ->
      let votes = Array.make sites true in
      let ro = Array.init sites (fun i -> ro_mask land (1 lsl i) <> 0) in
      List.for_all
        (fun variant ->
          let o =
            Sandbox.run ~seed ~read_only:ro ~max_steps:3000
              ~proto:(Commit_protocol.Two_phase variant) ~sites ~votes ()
          in
          o.agreement && o.all_decided
          && List.for_all (fun (_, d) -> decision_equal d Commit) o.decisions)
        [ Two_pc.Presumed_nothing; Two_pc.Presumed_abort;
          Two_pc.Presumed_commit ])

let happy_cases =
  List.concat_map
    (fun proto ->
      let name = Commit_protocol.label proto ~sites:3 in
      [
        Alcotest.test_case
          (Printf.sprintf "%s: unanimous yes commits" name)
          `Quick (check_commit_unanimous proto);
        Alcotest.test_case
          (Printf.sprintf "%s: a no vote aborts" name)
          `Quick (check_abort_on_no proto);
      ])
    all_protos

let () =
  Alcotest.run "commit"
    [
      ("happy-path", happy_cases);
      ( "costs",
        [ Alcotest.test_case "presumption cost profile" `Quick test_commit_costs ]
      );
      ( "failures",
        [
          Alcotest.test_case "2PC blocks on coordinator crash" `Quick
            test_2pc_blocks_on_coordinator_crash;
          Alcotest.test_case "2PC unblocks on recovery" `Quick
            test_2pc_unblocks_on_recovery;
          Alcotest.test_case "3PC non-blocking on coordinator crash" `Quick
            test_3pc_nonblocking_on_coordinator_crash;
          Alcotest.test_case "QC minority never splits" `Quick
            test_qc_minority_blocks;
        ] );
      ( "read-only",
        [
          Alcotest.test_case "optimization saves messages and forces" `Quick
            test_read_only_optimization_costs;
          Alcotest.test_case "all-read-only is almost free" `Quick
            test_all_read_only_commits_free;
          QCheck_alcotest.to_alcotest prop_read_only_agreement;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_agreement;
          QCheck_alcotest.to_alcotest prop_validity;
        ] );
    ]
