(* Tests of the sandbox interpreter itself: determinism, seed coverage,
   crash/recovery reconstruction from durable records, and cost
   accounting stability.  The sandbox is test infrastructure, but it is
   also the measurement instrument for T1/F5/A2 — so its semantics are
   pinned here. *)

open Rt_commit

let outcome_fingerprint (o : Sandbox.outcome) =
  Printf.sprintf "%s|%b|%b|%d|%d|%d|%b|%d"
    (String.concat ","
       (List.map
          (fun (s, d) ->
            Printf.sprintf "%d:%s" s
              (match d with Protocol.Commit -> "C" | Protocol.Abort -> "A"))
          o.decisions))
    o.agreement o.all_decided o.messages o.forced_writes o.lazy_writes
    o.blocked o.timeouts_fired

let test_fifo_deterministic () =
  let run () =
    Sandbox.run_fifo ~proto:(Commit_protocol.Two_phase Two_pc.Presumed_abort)
      ~sites:4 ~votes:[| true; true; true; true |] ()
  in
  Alcotest.(check string) "identical runs"
    (outcome_fingerprint (run ()))
    (outcome_fingerprint (run ()))

let test_seeded_deterministic () =
  let run () =
    Sandbox.run ~seed:12345 ~crashes:[ (1, 7) ] ~recoveries:[ (1, 50) ]
      ~proto:Commit_protocol.Three_phase ~sites:3
      ~votes:[| true; true; true |] ()
  in
  Alcotest.(check string) "identical seeded runs"
    (outcome_fingerprint (run ()))
    (outcome_fingerprint (run ()))

let test_seeds_differ () =
  (* Different seeds must explore different schedules at least sometimes:
     over many seeds the message orderings change even when outcomes
     agree, visible through timeout/blocked variation under crashes. *)
  let fingerprints =
    List.init 30 (fun seed ->
        outcome_fingerprint
          (Sandbox.run ~seed
             ~crashes:[ (0, 3 + (seed mod 12)) ]
             ~max_steps:800
             ~proto:(Commit_protocol.Two_phase Two_pc.Presumed_abort) ~sites:3
             ~votes:[| true; true; true |] ()))
  in
  Alcotest.(check bool) "schedule diversity" true
    (List.length (List.sort_uniq String.compare fingerprints) > 1)

let test_crash_before_prepare_loses_nothing () =
  (* Crash a participant before it could even receive the vote request:
     its prepared record never exists, so on recovery it may abort
     unilaterally and the coordinator's vote timeout aborts the
     transaction everywhere. *)
  let o =
    Sandbox.run ~seed:4 ~crashes:[ (2, 1) ] ~recoveries:[ (2, 40) ]
      ~max_steps:2000 ~proto:(Commit_protocol.Two_phase Two_pc.Presumed_abort)
      ~sites:3 ~votes:[| true; true; true |] ()
  in
  Alcotest.(check bool) "agreement" true o.agreement;
  Alcotest.(check bool) "all decided" true o.all_decided;
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "aborted everywhere" true (d = Protocol.Abort))
    o.decisions

let test_recovery_uses_durable_state () =
  (* Crash a participant late enough that its prepared record is durable:
     the rebuilt machine is uncertain and must learn the real outcome —
     never invent one. *)
  let consistent = ref true in
  for seed = 1 to 40 do
    let o =
      Sandbox.run ~seed
        ~crashes:[ (1, 12 + (seed mod 8)) ]
        ~recoveries:[ (1, 80) ] ~max_steps:3000
        ~proto:(Commit_protocol.Two_phase Two_pc.Presumed_abort) ~sites:3
        ~votes:[| true; true; true |] ()
    in
    if not (o.agreement && o.all_decided) then consistent := false
  done;
  Alcotest.(check bool) "recovered participants always converge" true
    !consistent

let test_costs_stable_across_seeds () =
  (* Failure-free commit costs must not depend on delivery order. *)
  let baseline =
    Sandbox.run_fifo ~proto:Commit_protocol.Three_phase ~sites:3
      ~votes:[| true; true; true |] ()
  in
  for seed = 1 to 20 do
    let o =
      Sandbox.run ~seed ~proto:Commit_protocol.Three_phase ~sites:3
        ~votes:[| true; true; true |] ()
    in
    Alcotest.(check int)
      (Printf.sprintf "messages at seed %d" seed)
      baseline.messages o.messages;
    Alcotest.(check int)
      (Printf.sprintf "forces at seed %d" seed)
      baseline.forced_writes o.forced_writes
  done

let test_bad_arguments_rejected () =
  Alcotest.check_raises "votes size"
    (Invalid_argument "Sandbox.run: votes array size mismatch") (fun () ->
      ignore
        (Sandbox.run ~proto:Commit_protocol.Three_phase ~sites:3
           ~votes:[| true |] ()));
  Alcotest.check_raises "read_only size"
    (Invalid_argument "Sandbox.run: read_only array size mismatch") (fun () ->
      ignore
        (Sandbox.run ~read_only:[| true |] ~proto:Commit_protocol.Three_phase
           ~sites:3 ~votes:[| true; true; true |] ()))

let () =
  Alcotest.run "sandbox"
    [
      ( "determinism",
        [
          Alcotest.test_case "fifo deterministic" `Quick test_fifo_deterministic;
          Alcotest.test_case "seeded deterministic" `Quick
            test_seeded_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "costs stable across seeds" `Quick
            test_costs_stable_across_seeds;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "crash before prepare" `Quick
            test_crash_before_prepare_loses_nothing;
          Alcotest.test_case "recovery from durable state" `Quick
            test_recovery_uses_durable_state;
        ] );
      ( "arguments",
        [ Alcotest.test_case "bad sizes rejected" `Quick
            test_bad_arguments_rejected ] );
    ]
