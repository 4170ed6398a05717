(* Paxos Commit: direct properties of the acceptor core (ballot safety,
   quorum intersection) plus sandbox sweeps of the behaviours that make
   it a sixth protocol rather than a fifth 2PC variant — non-blocking
   termination through leader election while the coordinator is down,
   and survival of any F acceptor losses. *)

open Rt_commit
open Protocol

let cfg ?f n =
  Paxos_commit.config ~all:(List.init n (fun i -> i)) ~coordinator:0 ?f ()

let dec = Alcotest.testable pp_decision decision_equal
let action = Alcotest.testable pp_action ( = )
let paxos f = Commit_protocol.Paxos_commit { f }

(* --- configuration ------------------------------------------------- *)

let check_prefix name prefix m =
  let d = Erased.describe m in
  Alcotest.(check string) name prefix
    (String.sub d 0 (min (String.length d) (String.length prefix)))

let test_config_defaults () =
  let c = cfg 5 in
  Alcotest.(check int) "max F" 2 c.Paxos_commit.f;
  Alcotest.(check (list int)) "acceptors" [ 0; 1; 2; 3; 4 ]
    c.Paxos_commit.acceptors;
  Alcotest.(check int) "quorum" 3 (Paxos_commit.quorum c);
  (* F = 0 is 2PC-PrN: the machines refuse it, and the registry builds
     two-phase commit's for a transaction that resolves to it. *)
  Alcotest.check_raises "F = 0"
    (Invalid_argument "Paxos_commit.config: F = 0 is 2PC-PrN") (fun () ->
      ignore (cfg ~f:0 5));
  let machines proto participants =
    [ Commit_protocol.coordinator proto ~participants ~self:0;
      Commit_protocol.participant proto ~participants ~coordinator:0 ~self:1
        ~vote:true ~read_only:true;
      Commit_protocol.recovered_participant proto ~participants
        ~coordinator:0 ~self:1 ~state:P_uncertain ]
  in
  List.iter
    (fun proto ->
      match machines proto [ 0; 1 ] with
      | [ co; part; recovered ] ->
          check_prefix "2PC coordinator" "2pc-coord:2PC-PrN" co;
          (* Paxos Commit has no read-only vote. *)
          check_prefix "2PC participant"
            "2pc-part:2PC-PrN:1<-0:peers=0:v=true:ro=false" part;
          check_prefix "2PC recovered participant" "2pc-part:2PC-PrN"
            recovered
      | _ -> assert false)
    [ paxos None; paxos (Some 0); paxos (Some 1) ];
  (match
     Commit_protocol.recovered_coordinator (paxos None) ~participants:[ 0; 1 ]
       ~self:0 ~logged:`Nothing
   with
  | Some m -> check_prefix "2PC recovered coordinator" "2pc-coord:2PC-PrN" m
  | None -> Alcotest.fail "no recovered coordinator at F = 0");
  List.iter
    (fun m -> check_prefix "three sites run Paxos Commit" "px-" m)
    (machines (paxos None) [ 0; 1; 2 ])

let test_config_rejects () =
  Alcotest.check_raises "negative F"
    (Invalid_argument "Paxos_commit.config: negative F") (fun () ->
      ignore (cfg ~f:(-1) 3));
  Alcotest.check_raises "too large F"
    (Invalid_argument "Paxos_commit.config: not enough sites for 2F+1 acceptors")
    (fun () -> ignore (cfg ~f:2 3));
  Alcotest.check_raises "no participants"
    (Invalid_argument "Paxos_commit.config: no participants") (fun () ->
      ignore (Paxos_commit.config ~all:[] ~coordinator:0 ()))

let test_recovery_presumption () =
  let participants = [ 0; 1; 2 ] in
  let recovered f =
    Commit_protocol.recovered_coordinator (paxos f) ~participants ~self:0
      ~logged:`Nothing
  in
  let presumed f =
    Commit_protocol.presumption (paxos f) ~participants ~coordinator:0
  in
  (* F = 0: an empty coordinator log is the 2PC-PrN abort presumption. *)
  (match recovered (Some 0) with
  | Some m ->
      Alcotest.(check (option dec)) "presumed abort" (Some Abort)
        (Erased.decision m)
  | None -> Alcotest.fail "no recovered coordinator at F = 0");
  Alcotest.(check (option dec)) "origin presumes abort" (Some Abort)
    (presumed (Some 0));
  (* F > 0: a surviving quorum may have chosen; presuming is unsound. *)
  Alcotest.(check bool) "empty log with F > 0" true
    (Option.is_none (recovered (Some 1)));
  Alcotest.(check (option dec)) "origin stays uncertain" None
    (presumed (Some 1))

(* --- acceptor core -------------------------------------------------- *)

let test_equal_ballot_never_overwrites () =
  let a = Paxos_commit.acc_init (cfg ~f:1 3) in
  let b1 : epoch = (1, 1) in
  let a, r1 = Paxos_commit.acc_p2a a ~ballot:b1 ~rm:2 ~v:Commit in
  (match r1 with
  | `P2b v -> Alcotest.check dec "first accept acks itself" Commit v
  | `Nack _ -> Alcotest.fail "fresh ballot nacked");
  (* A conflicting proposal at the same ballot must be re-acknowledged
     with the original value, and the stored triple must not change. *)
  let a, r2 = Paxos_commit.acc_p2a a ~ballot:b1 ~rm:2 ~v:Abort in
  (match r2 with
  | `P2b v -> Alcotest.check dec "duplicate re-acks original" Commit v
  | `Nack _ -> Alcotest.fail "equal ballot nacked");
  Alcotest.(check int) "one triple" 1
    (List.length (Paxos_commit.acc_accepted a));
  match Paxos_commit.acc_accepted a with
  | [ (rm, b, v) ] ->
      Alcotest.(check int) "instance" 2 rm;
      Alcotest.(check bool) "ballot" true (epoch_compare b b1 = 0);
      Alcotest.check dec "value" Commit v
  | _ -> Alcotest.fail "unexpected accepted set"

let test_stale_ballots_fenced () =
  let a = Paxos_commit.acc_init (cfg ~f:1 3) in
  let a, _ = Paxos_commit.acc_p1a a ~ballot:(3, 1) in
  (match Paxos_commit.acc_p1a a ~ballot:(2, 2) with
  | _, `Nack promised ->
      Alcotest.(check bool) "reports promise" true
        (epoch_compare promised (3, 1) = 0)
  | _, `P1b _ -> Alcotest.fail "stale prepare admitted");
  match Paxos_commit.acc_p2a a ~ballot:(1, 0) ~rm:1 ~v:Commit with
  | _, `Nack _ -> ()
  | _, `P2b _ -> Alcotest.fail "stale accept admitted"

(* Random acceptor histories: whatever the interleaving of prepares and
   accepts, (a) the first value accepted for an (instance, ballot) pair is
   the value every later equal-ballot accept acknowledges, and (b) the
   ballot recorded for an instance never decreases. *)
let prop_acceptor_ballot_safety =
  let op_gen =
    QCheck.Gen.(
      let ballot = map2 (fun r s -> (r, s)) (int_range 0 4) (int_range 0 2) in
      frequency
        [
          (1, map (fun b -> `P1a b) ballot);
          ( 3,
            map3
              (fun b rm v -> `P2a (b, rm, if v then Commit else Abort))
              ballot (int_range 0 2) bool );
        ])
  in
  let print_op = function
    | `P1a (r, s) -> Printf.sprintf "p1a(%d.%d)" r s
    | `P2a ((r, s), rm, v) ->
        Printf.sprintf "p2a(%d.%d,rm=%d,%s)" r s rm
          (match v with Commit -> "C" | Abort -> "A")
  in
  QCheck.Test.make ~name:"acceptor ballot safety" ~count:500
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) op_gen)
       ~print:(fun ops -> String.concat ";" (List.map print_op ops)))
    (fun ops ->
      let config = cfg ~f:1 3 in
      let acc = ref (Paxos_commit.acc_init config) in
      (* First value accepted per (instance, ballot). *)
      let first : (int * epoch, decision) Hashtbl.t = Hashtbl.create 16 in
      let ballots : (int, epoch) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          match op with
          | `P1a b ->
              let a, _ = Paxos_commit.acc_p1a !acc ~ballot:b in
              acc := a;
              true
          | `P2a (b, rm, v) -> (
              let a, rep = Paxos_commit.acc_p2a !acc ~ballot:b ~rm ~v in
              acc := a;
              match rep with
              | `Nack _ -> true
              | `P2b v' ->
                  let expected =
                    match Hashtbl.find_opt first (rm, b) with
                    | Some v0 -> v0
                    | None ->
                        Hashtbl.add first (rm, b) v';
                        v'
                  in
                  let monotone =
                    match Hashtbl.find_opt ballots rm with
                    | Some b0 -> epoch_compare b b0 >= 0
                    | None -> true
                  in
                  Hashtbl.replace ballots rm b;
                  decision_equal v' expected && monotone))
        ops)

(* Any two quorums of any valid (F, N) configuration share an acceptor:
   the property that makes a chosen value indelible. *)
let prop_quorum_intersection =
  let gen =
    QCheck.Gen.(
      int_range 3 9 >>= fun n ->
      int_range 1 ((n - 1) / 2) >>= fun f ->
      (* Two arbitrary acceptor subsets of quorum size. *)
      let subset seed =
        map (fun bits -> (seed, bits)) (array_size (return (2 * f + 1)) bool)
      in
      map2 (fun (_, b1) (_, b2) -> (n, f, b1, b2)) (subset 0) (subset 1))
  in
  QCheck.Test.make ~name:"quorums of every valid (F,N) intersect" ~count:500
    (QCheck.make gen ~print:(fun (n, f, _, _) -> Printf.sprintf "n=%d f=%d" n f))
    (fun (n, f, bits1, bits2) ->
      let config = cfg ~f n in
      let acceptors = Array.of_list config.Paxos_commit.acceptors in
      let q = Paxos_commit.quorum config in
      (* Grow each subset deterministically to quorum size. *)
      let pick bits =
        let chosen = ref [] in
        Array.iteri
          (fun i keep -> if keep then chosen := acceptors.(i) :: !chosen)
          bits;
        let i = ref 0 in
        while List.length !chosen < q do
          if not (List.mem acceptors.(!i) !chosen) then
            chosen := acceptors.(!i) :: !chosen;
          incr i
        done;
        !chosen
      in
      let q1 = pick bits1 and q2 = pick bits2 in
      List.length q1 >= q
      && List.length q2 >= q
      && List.exists (fun s -> List.mem s q2) q1)

(* --- sandbox: failure-free ------------------------------------------ *)

let commits_everywhere (o : Sandbox.outcome) ~sites =
  o.agreement && o.all_decided
  && List.length o.decisions = sites
  && List.for_all (fun (_, d) -> decision_equal d Commit) o.decisions

let test_failure_free_commit () =
  List.iter
    (fun (sites, f) ->
      let o =
        Sandbox.run_fifo
          ~proto:(Commit_protocol.Paxos_commit { f = Some f })
          ~sites ~votes:(Array.make sites true) ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "commit at N=%d F=%d" sites f)
        true
        (commits_everywhere o ~sites);
      Alcotest.(check bool)
        (Printf.sprintf "unblocked at N=%d F=%d" sites f)
        false o.blocked)
    [ (3, 0); (3, 1); (5, 0); (5, 1); (5, 2); (7, 3) ]

let test_refusal_aborts () =
  List.iter
    (fun f ->
      let votes = [| true; true; true; false; true |] in
      let o =
        Sandbox.run_fifo ~proto:(Commit_protocol.Paxos_commit { f = Some f })
          ~sites:5 ~votes ()
      in
      Alcotest.(check bool) "agreement" true o.agreement;
      Alcotest.(check bool) "all decided" true o.all_decided;
      List.iter
        (fun (s, d) ->
          Alcotest.check dec (Printf.sprintf "site %d aborted (F=%d)" s f)
            Abort d)
        o.decisions)
    [ 0; 1; 2 ]

let test_costs_match_analytic () =
  (* Failure-free commit: 2PC's message pattern plus, per extra acceptor,
     one phase-2a per instance and one phase-2b relay per vote — and the
     same forced-write bill (2PC-PrN's).  Must hold on every schedule. *)
  List.iter
    (fun (sites, f) ->
      let p = sites - 1 in
      let expect_msgs = (4 * p) + (2 * f * ((2 * p) + 1)) in
      let expect_forced = 1 + (2 * sites) in
      let fifo =
        Sandbox.run_fifo
          ~proto:(Commit_protocol.Paxos_commit { f = Some f })
          ~sites ~votes:(Array.make sites true) ()
      in
      Alcotest.(check int)
        (Printf.sprintf "messages N=%d F=%d" sites f)
        expect_msgs fifo.messages;
      Alcotest.(check int)
        (Printf.sprintf "forced N=%d F=%d" sites f)
        expect_forced fifo.forced_writes;
      for seed = 1 to 10 do
        let o =
          Sandbox.run ~seed
            ~proto:(Commit_protocol.Paxos_commit { f = Some f })
            ~sites ~votes:(Array.make sites true) ()
        in
        Alcotest.(check int)
          (Printf.sprintf "messages N=%d F=%d seed=%d" sites f seed)
          expect_msgs o.messages;
        Alcotest.(check int)
          (Printf.sprintf "forced N=%d F=%d seed=%d" sites f seed)
          expect_forced o.forced_writes
      done)
    [ (3, 0); (3, 1); (5, 1); (5, 2) ]

(* --- sandbox: fault tolerance --------------------------------------- *)

let test_coordinator_crash_nonblocking () =
  (* The tentpole behaviour: with F >= 1 a dead coordinator does not
     block the survivors — a participant usurps leadership and drives
     every instance to a decision.  No recovery ever happens, so 2PC
     would block here. *)
  List.iter
    (fun (sites, f) ->
      for k = sites + 1 to sites + 12 do
        for seed = 1 to 8 do
          let o =
            Sandbox.run ~seed
              ~crashes:[ (0, k) ]
              ~max_steps:4000
              ~proto:(Commit_protocol.Paxos_commit { f = Some f })
              ~sites ~votes:(Array.make sites true) ()
          in
          let tag =
            Printf.sprintf "N=%d F=%d crash@%d seed=%d" sites f k seed
          in
          Alcotest.(check bool) (tag ^ " agreement") true o.agreement;
          Alcotest.(check bool) (tag ^ " survivors decided") true o.all_decided
        done
      done)
    [ (3, 1); (5, 1); (5, 2) ]

let test_acceptor_crash_tolerated () =
  (* Losing up to F acceptors (never the coordinator) must not prevent
     commit, and never breaks agreement. *)
  List.iter
    (fun (sites, f, crashes) ->
      for seed = 1 to 10 do
        let o =
          Sandbox.run ~seed ~crashes ~max_steps:4000
            ~proto:(Commit_protocol.Paxos_commit { f = Some f })
            ~sites ~votes:(Array.make sites true) ()
        in
        let tag = Printf.sprintf "N=%d F=%d seed=%d" sites f seed in
        Alcotest.(check bool) (tag ^ " agreement") true o.agreement;
        Alcotest.(check bool) (tag ^ " survivors decided") true o.all_decided
      done)
    [
      (3, 1, [ (1, 9) ]);
      (5, 1, [ (2, 11) ]);
      (5, 2, [ (1, 9); (3, 13) ]);
    ]

let test_crash_recovery_converges () =
  (* Crash/recover sweeps across protocol stages: every live site ends
     with the same decision, for both the degenerate and the replicated
     configuration. *)
  List.iter
    (fun (site, f) ->
      for seed = 1 to 15 do
        let o =
          Sandbox.run ~seed
            ~crashes:[ (site, 6 + (seed mod 10)) ]
            ~recoveries:[ (site, 60) ]
            ~max_steps:5000
            ~proto:(Commit_protocol.Paxos_commit { f = Some f })
            ~sites:3 ~votes:[| true; true; true |] ()
        in
        let tag = Printf.sprintf "site=%d F=%d seed=%d" site f seed in
        Alcotest.(check bool) (tag ^ " agreement") true o.agreement;
        Alcotest.(check bool) (tag ^ " all decided") true o.all_decided
      done)
    [ (0, 0); (1, 0); (0, 1); (1, 1); (2, 1) ]

let test_unrelated_peer_down_ignored () =
  (* A collecting coordinator starts a recovery ballot, which proposes
     Abort for every free instance, only when a participant with an
     undecided instance fails (2PC's pending-peer rule).  A failed site
     outside the transaction changes nothing. *)
  let c = Paxos_commit.coordinator ~config:(cfg ~f:1 3) ~self:0 in
  let c, _ = Paxos_commit.coord_step c Start in
  let c', actions = Paxos_commit.coord_step c (Peer_down 3) in
  Alcotest.(check (list action)) "non-participant down: no actions" []
    actions;
  Alcotest.(check string) "non-participant down: state unchanged"
    (Paxos_commit.describe_coord c) (Paxos_commit.describe_coord c');
  let _, actions = Paxos_commit.coord_step c (Peer_down 2) in
  Alcotest.(check bool) "pending participant down: ballot 1 opens" true
    (List.mem (Send (1, Px_p1a (1, 0))) actions)

let test_recovered_acceptor_abstains () =
  (* A recovered acceptor lost its volatile promises: it must never again
     answer phase-1 or phase-2 traffic (abstention is the safety valve
     that 2F+1 acceptors buy). *)
  let p =
    Paxos_commit.participant_recovered ~config:(cfg ~f:1 3) ~self:1
      ~state:P_uncertain
  in
  let _, a1 = Paxos_commit.part_step p (Recv (2, Px_p1a (4, 2))) in
  Alcotest.(check int) "no phase-1 reply" 0 (List.length a1);
  let _, a2 = Paxos_commit.part_step p (Recv (2, Px_p2a ((4, 2), 1, Commit))) in
  Alcotest.(check int) "no phase-2 reply" 0 (List.length a2)

(* The coordinator's recovery ballot, scripted: it resends each phase on
   its timeout and reports Blocked once per phase, and a phase-1 quorum
   clears the flag. *)
let test_coordinator_ballot_blocks_and_decides () =
  let wait = default_timeouts.decision_wait in
  let c = Paxos_commit.coordinator ~config:(cfg ~f:1 3) ~self:0 in
  let c, _ = Paxos_commit.coord_step c Start in
  let p1a = [ Send (1, Px_p1a (1, 0)); Send (2, Px_p1a (1, 0)) ] in
  let c, actions = Paxos_commit.coord_step c (Timeout T_votes) in
  Alcotest.(check (list action)) "vote timeout opens ballot 1.0"
    (p1a @ [ Set_timer (T_state, wait) ])
    actions;
  let c, actions = Paxos_commit.coord_step c (Timeout T_state) in
  Alcotest.(check (list action)) "phase-1 timeout resends, blocked"
    (p1a @ [ Set_timer (T_state, wait); Blocked ])
    actions;
  Alcotest.(check bool) "blocked" true (Paxos_commit.coord_blocked c);
  let _, actions = Paxos_commit.coord_step c (Timeout T_state) in
  Alcotest.(check (list action)) "Blocked reported once"
    (p1a @ [ Set_timer (T_state, wait) ])
    actions;
  let c, actions = Paxos_commit.coord_step c (Recv (1, Px_p1b ((1, 0), []))) in
  let p2a =
    List.concat_map
      (fun rm -> [ Send (1, Px_p2a ((1, 0), rm, Abort));
                   Send (2, Px_p2a ((1, 0), rm, Abort)) ])
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list action)) "phase-1 quorum proposes Abort everywhere"
    (p2a @ [ Set_timer (T_precommit_ack, wait) ])
    actions;
  Alcotest.(check bool) "unblocked" false (Paxos_commit.coord_blocked c);
  let c, actions = Paxos_commit.coord_step c (Timeout T_precommit_ack) in
  Alcotest.(check (list action)) "phase-2 timeout resends, blocked"
    (p2a @ [ Set_timer (T_precommit_ack, wait); Blocked ])
    actions;
  let c, actions =
    Paxos_commit.coord_step c (Recv (1, Px_p2b ((1, 0), 0, Abort)))
  in
  Alcotest.(check (list action)) "Abort quorum on instance 0 decides"
    [ Clear_timer T_votes; Clear_timer T_state; Clear_timer T_precommit_ack;
      Log (L_decision Abort, `Forced) ]
    actions;
  Alcotest.(check (option dec)) "decided abort" (Some Abort)
    (Paxos_commit.coord_decision c)

(* An elected participant, scripted: a phase timeout makes it a blocked
   follower, its resend timer re-elects it at the next ballot, and it
   proposes what its own acceptor accepted at ballot 0. *)
let test_participant_leader_times_out_and_retries () =
  let wait = default_timeouts.decision_wait in
  let p = Paxos_commit.participant ~config:(cfg ~f:1 3) ~self:1 ~vote:true in
  let p, _ = Paxos_commit.part_step p (Recv (0, Vote_req)) in
  let p, _ = Paxos_commit.part_step p (Log_done L_prepared) in
  let p, actions = Paxos_commit.part_step p (Peer_down 0) in
  Alcotest.(check (list action)) "coordinator down: leads at ballot 1.1"
    [ Send (0, Px_p1a (1, 1)); Send (2, Px_p1a (1, 1));
      Set_timer (T_state, wait) ]
    actions;
  let p, actions = Paxos_commit.part_step p (Timeout T_state) in
  Alcotest.(check (list action)) "phase-1 timeout: blocked follower"
    [ Set_timer (T_resend, default_timeouts.resend_every); Blocked ]
    actions;
  Alcotest.(check bool) "blocked" true (Paxos_commit.part_blocked p);
  Alcotest.(check bool) "follower" true
    (String.ends_with ~suffix:":follower" (Paxos_commit.describe_part p));
  let p, actions = Paxos_commit.part_step p (Timeout T_resend) in
  Alcotest.(check (list action)) "resend timeout: leads at ballot 2.1"
    [ Send (0, Px_p1a (2, 1)); Send (2, Px_p1a (2, 1));
      Set_timer (T_state, wait) ]
    actions;
  let _, actions = Paxos_commit.part_step p (Recv (2, Px_p1b ((2, 1), []))) in
  let p2a rm v =
    [ Send (0, Px_p2a ((2, 1), rm, v)); Send (2, Px_p2a ((2, 1), rm, v)) ]
  in
  Alcotest.(check (list action)) "proposes its own acceptance, Abort elsewhere"
    (p2a 0 Abort @ p2a 1 Commit @ p2a 2 Abort
    @ [ Set_timer (T_precommit_ack, wait) ])
    actions

let () =
  Alcotest.run "paxos"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "rejects" `Quick test_config_rejects;
          Alcotest.test_case "recovery presumption" `Quick
            test_recovery_presumption;
        ] );
      ( "acceptor",
        [
          Alcotest.test_case "equal ballot never overwrites" `Quick
            test_equal_ballot_never_overwrites;
          Alcotest.test_case "stale ballots fenced" `Quick
            test_stale_ballots_fenced;
          QCheck_alcotest.to_alcotest prop_acceptor_ballot_safety;
          QCheck_alcotest.to_alcotest prop_quorum_intersection;
        ] );
      ( "failure-free",
        [
          Alcotest.test_case "commit" `Quick test_failure_free_commit;
          Alcotest.test_case "refusal aborts" `Quick test_refusal_aborts;
          Alcotest.test_case "costs match analytic" `Quick
            test_costs_match_analytic;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "coordinator crash non-blocking" `Quick
            test_coordinator_crash_nonblocking;
          Alcotest.test_case "acceptor crash tolerated" `Quick
            test_acceptor_crash_tolerated;
          Alcotest.test_case "crash/recovery converges" `Quick
            test_crash_recovery_converges;
          Alcotest.test_case "unrelated peer down ignored" `Quick
            test_unrelated_peer_down_ignored;
          Alcotest.test_case "recovered acceptor abstains" `Quick
            test_recovered_acceptor_abstains;
          Alcotest.test_case "coordinator ballot blocks and decides" `Quick
            test_coordinator_ballot_blocks_and_decides;
          Alcotest.test_case "leader times out and retries" `Quick
            test_participant_leader_times_out_and_retries;
        ] );
    ]
