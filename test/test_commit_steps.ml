(* Step-level tests of the commitment machines: exact action sequences
   for canonical input orders.  These pin the protocol definitions down
   more tightly than the schedule-randomizing sandbox. *)

open Rt_commit
open Protocol

let timeouts = default_timeouts

let action = Alcotest.testable pp_action (fun a b -> a = b)

(* --- 2PC coordinator (presumed abort) ----------------------------------- *)

let test_pra_coordinator_commit_walk () =
  let c =
    Two_pc.coordinator ~variant:Two_pc.Presumed_abort ~participants:[ 0; 1; 2 ]
  in
  (* Start: vote requests to everyone plus the collection timer. *)
  let c, actions = Two_pc.coord_step c Start in
  Alcotest.(check (list action)) "start actions"
    [ Send (0, Vote_req); Send (1, Vote_req); Send (2, Vote_req);
      Set_timer (T_votes, timeouts.vote_collect) ]
    actions;
  (* Two yes votes: nothing observable. *)
  let c, actions = Two_pc.coord_step c (Recv (0, Vote_yes)) in
  Alcotest.(check (list action)) "quiet while collecting" [] actions;
  let c, actions = Two_pc.coord_step c (Recv (1, Vote_yes)) in
  Alcotest.(check (list action)) "still quiet" [] actions;
  Alcotest.(check bool) "no decision yet" true (Two_pc.coord_decision c = None);
  (* Final yes: force the commit record. *)
  let c, actions = Two_pc.coord_step c (Recv (2, Vote_yes)) in
  Alcotest.(check (list action)) "commit logged"
    [ Clear_timer T_votes; Log (L_decision Commit, `Forced) ]
    actions;
  (* Durable: distribute, await acks. *)
  let c, actions = Two_pc.coord_step c (Log_done (L_decision Commit)) in
  Alcotest.(check (list action)) "distribution"
    [ Send (0, Decision_msg Commit); Send (1, Decision_msg Commit);
      Send (2, Decision_msg Commit);
      Set_timer (T_resend, timeouts.resend_every); Deliver Commit ]
    actions;
  (* Acks close the book with a lazy end record. *)
  let c, _ = Two_pc.coord_step c (Recv (0, Decision_ack)) in
  let c, _ = Two_pc.coord_step c (Recv (1, Decision_ack)) in
  let c, actions = Two_pc.coord_step c (Recv (2, Decision_ack)) in
  Alcotest.(check (list action)) "end record"
    [ Clear_timer T_resend; Log (L_end, `Lazy) ]
    actions;
  Alcotest.(check bool) "done" true (Two_pc.coord_done c)

let test_pra_coordinator_abort_is_lazy () =
  let c =
    Two_pc.coordinator ~variant:Two_pc.Presumed_abort ~participants:[ 0; 1 ]
  in
  let c, _ = Two_pc.coord_step c Start in
  let c, _ = Two_pc.coord_step c (Recv (0, Vote_yes)) in
  let c, actions = Two_pc.coord_step c (Recv (1, Vote_no)) in
  (* Presumed abort: lazy abort record, notify the yes-voter, no acks,
     immediate end. *)
  Alcotest.(check (list action)) "lazy abort"
    [ Clear_timer T_votes; Log (L_decision Abort, `Lazy);
      Send (0, Decision_msg Abort); Log (L_end, `Lazy); Deliver Abort ]
    actions;
  Alcotest.(check bool) "decision" true
    (Two_pc.coord_decision c = Some Abort)

let test_prn_coordinator_abort_is_forced_with_acks () =
  let c =
    Two_pc.coordinator ~variant:Two_pc.Presumed_nothing ~participants:[ 0; 1 ]
  in
  let c, _ = Two_pc.coord_step c Start in
  let c, _ = Two_pc.coord_step c (Recv (0, Vote_yes)) in
  let c, actions = Two_pc.coord_step c (Recv (1, Vote_no)) in
  Alcotest.(check (list action)) "forced abort"
    [ Clear_timer T_votes; Log (L_decision Abort, `Forced) ]
    actions;
  let _, actions = Two_pc.coord_step c (Log_done (L_decision Abort)) in
  Alcotest.(check (list action)) "abort distributed, acks expected"
    [ Send (0, Decision_msg Abort);
      Set_timer (T_resend, timeouts.resend_every); Deliver Abort ]
    actions

let test_prc_coordinator_forces_collecting_first () =
  let c =
    Two_pc.coordinator ~variant:Two_pc.Presumed_commit ~participants:[ 0 ]
  in
  let c, actions = Two_pc.coord_step c Start in
  Alcotest.(check (list action)) "collecting record first"
    [ Log (L_collecting, `Forced) ]
    actions;
  let _, actions = Two_pc.coord_step c (Log_done L_collecting) in
  Alcotest.(check (list action)) "then votes"
    [ Send (0, Vote_req); Set_timer (T_votes, timeouts.vote_collect) ]
    actions

(* --- 2PC participant ----------------------------------------------------- *)

let test_participant_yes_walk () =
  let p =
    Two_pc.participant ~variant:Two_pc.Presumed_abort ~self:1 ~coordinator:0
      ~peers:[ 0; 1; 2 ] ~vote:true ()
  in
  let p, actions = Two_pc.part_step p (Recv (0, Vote_req)) in
  Alcotest.(check (list action)) "prepared forced"
    [ Log (L_prepared, `Forced) ]
    actions;
  let p, actions = Two_pc.part_step p (Log_done L_prepared) in
  Alcotest.(check (list action)) "vote after durable"
    [ Send (0, Vote_yes); Set_timer (T_decision, timeouts.decision_wait) ]
    actions;
  Alcotest.(check bool) "uncertain" true (Two_pc.part_state p = P_uncertain);
  let p, actions = Two_pc.part_step p (Recv (0, Decision_msg Commit)) in
  Alcotest.(check (list action)) "commit forced"
    [ Clear_timer T_decision; Clear_timer T_resend;
      Log (L_decision Commit, `Forced) ]
    actions;
  let p, actions = Two_pc.part_step p (Log_done (L_decision Commit)) in
  Alcotest.(check (list action)) "ack + deliver"
    [ Send (0, Decision_ack); Deliver Commit ]
    actions;
  Alcotest.(check bool) "committed" true (Two_pc.part_state p = P_committed)

let test_participant_no_vote_aborts_unilaterally () =
  let p =
    Two_pc.participant ~variant:Two_pc.Presumed_abort ~self:1 ~coordinator:0
      ~peers:[ 0; 1 ] ~vote:false ()
  in
  let p, actions = Two_pc.part_step p (Recv (0, Vote_req)) in
  Alcotest.(check (list action)) "no + local abort"
    [ Send (0, Vote_no); Log (L_decision Abort, `Lazy); Deliver Abort ]
    actions;
  Alcotest.(check bool) "aborted" true (Two_pc.part_state p = P_aborted)

let test_participant_timeout_asks_around () =
  let p =
    Two_pc.participant ~variant:Two_pc.Presumed_abort ~self:1 ~coordinator:0
      ~peers:[ 0; 1; 2 ] ~vote:true ()
  in
  let p, _ = Two_pc.part_step p (Recv (0, Vote_req)) in
  let p, _ = Two_pc.part_step p (Log_done L_prepared) in
  let p, actions = Two_pc.part_step p (Timeout T_decision) in
  Alcotest.(check (list action)) "cooperative inquiry + blocked"
    [ Send (0, Decision_req); Send (2, Decision_req);
      Set_timer (T_resend, timeouts.resend_every); Blocked ]
    actions;
  Alcotest.(check bool) "blocked" true (Two_pc.part_blocked p);
  (* A peer that knows the answer resolves it. *)
  let p, actions = Two_pc.part_step p (Recv (2, Decision_msg Abort)) in
  Alcotest.(check (list action)) "abort is lazy under PrA"
    [ Clear_timer T_decision; Clear_timer T_resend;
      Log (L_decision Abort, `Lazy); Deliver Abort ]
    actions;
  Alcotest.(check bool) "resolved" true (Two_pc.part_state p = P_aborted)

let test_read_only_participant_forgets () =
  let p =
    Two_pc.participant ~read_only:true ~variant:Two_pc.Presumed_abort ~self:1
      ~coordinator:0 ~peers:[ 0; 1 ] ~vote:true ()
  in
  let p, actions = Two_pc.part_step p (Recv (0, Vote_req)) in
  Alcotest.(check (list action)) "read-only vote and forget"
    [ Send (0, Vote_read_only); Forget ]
    actions;
  (* It knows nothing afterwards. *)
  let _, actions = Two_pc.part_step p (Recv (2, Decision_req)) in
  Alcotest.(check (list action)) "answers unknown"
    [ Send (2, Decision_unknown) ]
    actions

(* --- 2PC recovery entry points ------------------------------------------- *)

let test_recovered_coordinator_redistributes () =
  (* PrN and PrA both require commit acks: a coordinator that logged
     Commit and crashed must re-distribute until everyone acknowledges. *)
  List.iter
    (fun variant ->
      let name = Two_pc.variant_name variant in
      let c =
        Two_pc.coordinator_recovered ~variant ~participants:[ 0; 1 ]
          ~logged:(`Decision Commit)
      in
      Alcotest.(check bool) (name ^ ": not done yet") false (Two_pc.coord_done c);
      let c, actions = Two_pc.coord_step c Start in
      Alcotest.(check (list action)) (name ^ ": redistribute on start")
        [ Send (0, Decision_msg Commit); Send (1, Decision_msg Commit);
          Set_timer (T_resend, timeouts.resend_every) ]
        actions;
      let c, _ = Two_pc.coord_step c (Recv (0, Decision_ack)) in
      let c, actions = Two_pc.coord_step c (Recv (1, Decision_ack)) in
      Alcotest.(check (list action)) (name ^ ": end after all acks")
        [ Clear_timer T_resend; Log (L_end, `Lazy) ]
        actions;
      Alcotest.(check bool) (name ^ ": done") true (Two_pc.coord_done c))
    [ Two_pc.Presumed_nothing; Two_pc.Presumed_abort ]

let test_recovered_prc_commit_needs_nothing () =
  (* Presumed commit: a logged Commit needs no acks — the machine comes
     back finished and only answers inquiries. *)
  let c =
    Two_pc.coordinator_recovered ~variant:Two_pc.Presumed_commit
      ~participants:[ 0; 1 ] ~logged:(`Decision Commit)
  in
  Alcotest.(check bool) "done immediately" true (Two_pc.coord_done c);
  let c, actions = Two_pc.coord_step c Start in
  Alcotest.(check (list action)) "start is a no-op" [] actions;
  let _, actions = Two_pc.coord_step c (Recv (1, Decision_req)) in
  Alcotest.(check (list action)) "answers inquiries"
    [ Send (1, Decision_msg Commit) ]
    actions

let test_recovered_prc_collecting_aborts () =
  (* Presumed commit crashed between the Collecting record and the
     decision: it must abort, force the record, and collect abort acks. *)
  let c =
    Two_pc.coordinator_recovered ~variant:Two_pc.Presumed_commit
      ~participants:[ 0; 1 ] ~logged:`Collecting
  in
  let c, actions = Two_pc.coord_step c Start in
  Alcotest.(check (list action)) "re-force the abort record"
    [ Log (L_decision Abort, `Forced) ]
    actions;
  (* Undecided until durable: inquiries get no answer yet. *)
  let c, actions = Two_pc.coord_step c (Recv (1, Decision_req)) in
  Alcotest.(check (list action)) "undecided while logging"
    [ Send (1, Decision_unknown) ]
    actions;
  let c, actions = Two_pc.coord_step c (Log_done (L_decision Abort)) in
  Alcotest.(check (list action)) "distribute abort, await acks"
    [ Send (0, Decision_msg Abort); Send (1, Decision_msg Abort);
      Set_timer (T_resend, timeouts.resend_every); Deliver Abort ]
    actions;
  Alcotest.(check bool) "decided abort" true
    (Two_pc.coord_decision c = Some Abort)

let test_recovered_coordinator_presumes () =
  (* No log record at all: the machine comes back finished and answers
     inquiries with the variant's presumption. *)
  List.iter
    (fun (variant, presumed) ->
      let name = Two_pc.variant_name variant in
      let c =
        Two_pc.coordinator_recovered ~variant ~participants:[ 0; 1 ]
          ~logged:`Nothing
      in
      Alcotest.(check bool) (name ^ ": done") true (Two_pc.coord_done c);
      let c, actions = Two_pc.coord_step c Start in
      Alcotest.(check (list action)) (name ^ ": start is a no-op") [] actions;
      let _, actions = Two_pc.coord_step c (Recv (1, Decision_req)) in
      Alcotest.(check (list action)) (name ^ ": presumption answer")
        [ Send (1, Decision_msg presumed) ]
        actions)
    [
      (Two_pc.Presumed_nothing, Abort);
      (Two_pc.Presumed_abort, Abort);
      (Two_pc.Presumed_commit, Commit);
    ]

let test_recovered_participant_asks_around () =
  (* A prepared-but-undecided participant wakes up in the uncertain
     window and immediately runs cooperative termination. *)
  let p =
    Two_pc.participant_recovered ~variant:Two_pc.Presumed_abort ~self:1
      ~coordinator:0 ~peers:[ 0; 1; 2 ]
  in
  Alcotest.(check bool) "uncertain" true (Two_pc.part_state p = P_uncertain);
  let p, actions = Two_pc.part_step p Start in
  Alcotest.(check (list action)) "asks coordinator and peers"
    [ Send (0, Decision_req); Send (2, Decision_req);
      Set_timer (T_resend, timeouts.resend_every) ]
    actions;
  (* Commit under PrA is forced and acknowledged. *)
  let p, actions = Two_pc.part_step p (Recv (0, Decision_msg Commit)) in
  Alcotest.(check (list action)) "commit forced"
    [ Clear_timer T_decision; Clear_timer T_resend;
      Log (L_decision Commit, `Forced) ]
    actions;
  let p, actions = Two_pc.part_step p (Log_done (L_decision Commit)) in
  Alcotest.(check (list action)) "ack + deliver"
    [ Send (0, Decision_ack); Deliver Commit ]
    actions;
  Alcotest.(check bool) "committed" true (Two_pc.part_state p = P_committed)

let test_recovered_participant_outcomes_by_variant () =
  (* The recovered machine still honours each variant's forcing and ack
     discipline when the answer finally arrives. *)
  let recovered variant =
    let p =
      Two_pc.participant_recovered ~variant ~self:1 ~coordinator:0
        ~peers:[ 0; 1; 2 ]
    in
    fst (Two_pc.part_step p Start)
  in
  (* PrA abort: lazy, no ack. *)
  let p, actions =
    Two_pc.part_step (recovered Two_pc.Presumed_abort)
      (Recv (2, Decision_msg Abort))
  in
  Alcotest.(check (list action)) "PrA abort lazy, unacknowledged"
    [ Clear_timer T_decision; Clear_timer T_resend;
      Log (L_decision Abort, `Lazy); Deliver Abort ]
    actions;
  Alcotest.(check bool) "aborted" true (Two_pc.part_state p = P_aborted);
  (* PrC commit: lazy, no ack. *)
  let _, actions =
    Two_pc.part_step (recovered Two_pc.Presumed_commit)
      (Recv (0, Decision_msg Commit))
  in
  Alcotest.(check (list action)) "PrC commit lazy, unacknowledged"
    [ Clear_timer T_decision; Clear_timer T_resend;
      Log (L_decision Commit, `Lazy); Deliver Commit ]
    actions;
  (* PrN abort: forced, acknowledged. *)
  let p, actions =
    Two_pc.part_step (recovered Two_pc.Presumed_nothing)
      (Recv (0, Decision_msg Abort))
  in
  Alcotest.(check (list action)) "PrN abort forced"
    [ Clear_timer T_decision; Clear_timer T_resend;
      Log (L_decision Abort, `Forced) ]
    actions;
  let _, actions = Two_pc.part_step p (Log_done (L_decision Abort)) in
  Alcotest.(check (list action)) "PrN abort acknowledged"
    [ Send (0, Decision_ack); Deliver Abort ]
    actions

(* --- regressions from the crash-point sweep ------------------------------- *)

let test_idle_participant_adopts_decision () =
  (* Regression: a recovered coordinator redistributes its decision to
     every participant, including one whose vote request died with the
     coordinator and is still idle.  The idle participant used to drop
     the message, leaving the coordinator resending forever. *)
  let p =
    Two_pc.participant ~variant:Two_pc.Presumed_nothing ~self:1 ~coordinator:0
      ~peers:[ 0; 1; 2 ] ~vote:true ()
  in
  let p, actions = Two_pc.part_step p (Recv (0, Decision_msg Abort)) in
  Alcotest.(check (list action)) "adopts the coordinator's abort"
    [ Clear_timer T_decision; Clear_timer T_resend;
      Log (L_decision Abort, `Forced) ]
    actions;
  let _, actions = Two_pc.part_step p (Log_done (L_decision Abort)) in
  Alcotest.(check (list action)) "acks so the resends stop"
    [ Send (0, Decision_ack); Deliver Abort ]
    actions

let test_forgotten_participant_reacks () =
  (* Regression: a read-only participant has released and forgotten, but
     an ack-collecting coordinator cannot know that — it must re-ack
     duplicate decisions instead of ignoring them. *)
  let forgotten variant =
    let p =
      Two_pc.participant ~read_only:true ~variant ~self:1 ~coordinator:0
        ~peers:[ 0; 1 ] ~vote:true ()
    in
    fst (Two_pc.part_step p (Recv (0, Vote_req)))
  in
  let _, actions =
    Two_pc.part_step
      (forgotten Two_pc.Presumed_nothing)
      (Recv (0, Decision_msg Commit))
  in
  Alcotest.(check (list action)) "PrN: ack expected"
    [ Send (0, Decision_ack) ]
    actions;
  let _, actions =
    Two_pc.part_step
      (forgotten Two_pc.Presumed_commit)
      (Recv (0, Decision_msg Commit))
  in
  Alcotest.(check (list action)) "PrC commit: no ack expected" [] actions

let test_early_decision_req_gets_unknown () =
  (* Regression: a Decision_req arriving before the participant has any
     state (or while the prepared record is still in flight) must be
     answered Decision_unknown, not dropped — the asker is blocked. *)
  let p =
    Two_pc.participant ~variant:Two_pc.Presumed_abort ~self:1 ~coordinator:0
      ~peers:[ 0; 1; 2 ] ~vote:true ()
  in
  let _, actions = Two_pc.part_step p (Recv (2, Decision_req)) in
  Alcotest.(check (list action)) "idle answers unknown"
    [ Send (2, Decision_unknown) ]
    actions;
  let p, _ = Two_pc.part_step p (Recv (0, Vote_req)) in
  let _, actions = Two_pc.part_step p (Recv (2, Decision_req)) in
  Alcotest.(check (list action)) "logging-prepared answers unknown"
    [ Send (2, Decision_unknown) ]
    actions

(* --- 3PC ------------------------------------------------------------------ *)

let test_3pc_walk () =
  let c = Three_pc.coordinator ~participants:[ 0; 1 ] in
  let c, _ = Three_pc.coord_step c Start in
  let c, _ = Three_pc.coord_step c (Recv (0, Vote_yes)) in
  let c, actions = Three_pc.coord_step c (Recv (1, Vote_yes)) in
  Alcotest.(check (list action)) "precommit logged first"
    [ Clear_timer T_votes; Log (L_precommit, `Forced) ]
    actions;
  let c, actions = Three_pc.coord_step c (Log_done L_precommit) in
  Alcotest.(check (list action)) "precommit round"
    [ Send (0, Precommit_msg); Send (1, Precommit_msg);
      Set_timer (T_precommit_ack, timeouts.decision_wait) ]
    actions;
  let c, _ = Three_pc.coord_step c (Recv (0, Precommit_ack)) in
  let c, actions = Three_pc.coord_step c (Recv (1, Precommit_ack)) in
  Alcotest.(check (list action)) "commit after all acks"
    [ Clear_timer T_precommit_ack; Log (L_decision Commit, `Forced) ]
    actions;
  let _, actions = Three_pc.coord_step c (Log_done (L_decision Commit)) in
  Alcotest.(check (list action)) "commit broadcast, no acks needed"
    [ Send (0, Decision_msg Commit); Send (1, Decision_msg Commit);
      Deliver Commit; Log (L_end, `Lazy) ]
    actions

let test_3pc_participant_precommit_phase () =
  let p =
    Three_pc.participant ~self:1 ~coordinator:0 ~all:[ 0; 1; 2 ] ~vote:true
  in
  let p, _ = Three_pc.part_step p (Recv (0, Vote_req)) in
  let p, _ = Three_pc.part_step p (Log_done L_prepared) in
  let p, actions = Three_pc.part_step p (Recv (0, Precommit_msg)) in
  Alcotest.(check (list action)) "precommit forced"
    [ Clear_timer T_decision; Log (L_precommit, `Forced) ]
    actions;
  let p, actions = Three_pc.part_step p (Log_done L_precommit) in
  Alcotest.(check (list action)) "ack precommit"
    [ Send (0, Precommit_ack); Set_timer (T_decision, timeouts.decision_wait) ]
    actions;
  Alcotest.(check bool) "precommitted" true
    (Three_pc.part_state p = P_precommitted)

(* Regression (found by the nemesis lossy campaign): a pre-committed
   participant whose Precommit_ack was lost must re-ack a duplicate
   Precommit_msg, or the sender waits a full timeout for nothing. *)
let test_3pc_precommitted_reacks_duplicate_precommit () =
  let p =
    Three_pc.participant ~self:1 ~coordinator:0 ~all:[ 0; 1; 2 ] ~vote:true
  in
  let p, _ = Three_pc.part_step p (Recv (0, Vote_req)) in
  let p, _ = Three_pc.part_step p (Log_done L_prepared) in
  let p, _ = Three_pc.part_step p (Recv (0, Precommit_msg)) in
  let p, _ = Three_pc.part_step p (Log_done L_precommit) in
  let _, actions = Three_pc.part_step p (Recv (0, Precommit_msg)) in
  Alcotest.(check (list action)) "duplicate precommit re-acked"
    [ Send (0, Precommit_ack) ]
    actions

(* Regression (nemesis lossy campaign): a finished participant whose
   Decision_ack was lost must re-ack the coordinator's resent decision —
   otherwise an abort-wait coordinator resends forever and the protocol
   never quiesces. *)
let test_3pc_finished_reacks_resent_decision () =
  let p =
    Three_pc.participant ~self:1 ~coordinator:0 ~all:[ 0; 1; 2 ] ~vote:true
  in
  let p, _ = Three_pc.part_step p (Recv (0, Vote_req)) in
  let p, _ = Three_pc.part_step p (Log_done L_prepared) in
  let p, _ = Three_pc.part_step p (Recv (0, Decision_msg Abort)) in
  let p, actions = Three_pc.part_step p (Log_done (L_decision Abort)) in
  Alcotest.(check bool) "first ack sent" true
    (List.mem (Send (0, Decision_ack)) actions);
  let _, actions = Three_pc.part_step p (Recv (0, Decision_msg Abort)) in
  Alcotest.(check (list action)) "resent decision re-acked"
    [ Send (0, Decision_ack) ]
    actions

(* --- quorum commit epochs -------------------------------------------------- *)

let test_qc_participant_rejects_stale_epochs () =
  let config = Quorum_commit.config ~all:[ 0; 1; 2 ] () in
  let p =
    Quorum_commit.participant ~config ~self:1 ~coordinator:0 ~vote:true
  in
  let p, _ = Quorum_commit.part_step p (Recv (0, Vote_req)) in
  let p, _ = Quorum_commit.part_step p (Log_done L_prepared) in
  (* Accept the original coordinator's epoch-0 precommit. *)
  let p, actions = Quorum_commit.part_step p (Recv (0, Pq_precommit (0, 0))) in
  Alcotest.(check (list action)) "epoch 0 accepted"
    [ Clear_timer T_decision; Log (L_precommit, `Forced) ]
    actions;
  let p, _ = Quorum_commit.part_step p (Log_done L_precommit) in
  (* A later leader at a higher epoch re-drives: re-acked at that epoch. *)
  let p, actions = Quorum_commit.part_step p (Recv (2, Pq_precommit (1, 2))) in
  Alcotest.(check (list action)) "re-ack at higher epoch"
    [ Send (2, Pq_precommit_ack (1, 2)) ]
    actions;
  (* A stale epoch-0 pre-abort attempt is ignored entirely. *)
  let _, actions = Quorum_commit.part_step p (Recv (0, Pq_preabort (0, 0))) in
  Alcotest.(check (list action)) "stale epoch ignored" [] actions

(* Same resend-storm regression as 3PC, quorum-commit flavour. *)
let test_qc_finished_reacks_resent_decision () =
  let config = Quorum_commit.config ~all:[ 0; 1; 2 ] () in
  let p =
    Quorum_commit.participant ~config ~self:1 ~coordinator:0 ~vote:true
  in
  let p, _ = Quorum_commit.part_step p (Recv (0, Vote_req)) in
  let p, _ = Quorum_commit.part_step p (Log_done L_prepared) in
  let p, _ = Quorum_commit.part_step p (Recv (0, Decision_msg Abort)) in
  let p, actions = Quorum_commit.part_step p (Log_done (L_decision Abort)) in
  Alcotest.(check bool) "first ack sent" true
    (List.mem (Send (0, Decision_ack)) actions);
  (* The resend may come from the coordinator or an elected leader; the
     re-ack goes back to whoever asked. *)
  let _, actions = Quorum_commit.part_step p (Recv (2, Decision_msg Abort)) in
  Alcotest.(check (list action)) "resent decision re-acked"
    [ Send (2, Decision_ack) ]
    actions

let test_qc_coordinator_commits_at_quorum () =
  let config =
    Quorum_commit.config ~all:[ 0; 1; 2; 3; 4 ] ~commit_quorum:3
      ~abort_quorum:3 ()
  in
  let c = Quorum_commit.coordinator ~config ~self:0 in
  let c, _ = Quorum_commit.coord_step c Start in
  let c =
    List.fold_left
      (fun c s -> fst (Quorum_commit.coord_step c (Recv (s, Vote_yes))))
      c [ 0; 1; 2; 3; 4 ]
  in
  let c, _ = Quorum_commit.coord_step c (Log_done L_precommit) in
  (* Two acks: below Vc=3, still waiting. *)
  let c, _ = Quorum_commit.coord_step c (Recv (0, Pq_precommit_ack (0, 0))) in
  let c, actions = Quorum_commit.coord_step c (Recv (1, Pq_precommit_ack (0, 0))) in
  Alcotest.(check (list action)) "below quorum: wait" [] actions;
  Alcotest.(check bool) "no decision yet" true
    (Quorum_commit.coord_decision c = None);
  (* Third ack reaches the commit quorum: commit without the stragglers. *)
  let c, actions = Quorum_commit.coord_step c (Recv (2, Pq_precommit_ack (0, 0))) in
  Alcotest.(check (list action)) "commit at quorum"
    [ Clear_timer T_precommit_ack; Clear_timer T_resend;
      Log (L_decision Commit, `Forced) ]
    actions;
  Alcotest.(check bool) "decided" true
    (Quorum_commit.coord_decision c = Some Commit)

(* --- explorer-found regressions ----------------------------------------- *)

(* Walk a fresh QC participant to [B_uncertain]. *)
let qc_uncertain ~config ~self ~coordinator =
  let p =
    Quorum_commit.participant ~config ~self ~coordinator ~vote:true
  in
  let p, _ = Quorum_commit.part_step p (Recv (coordinator, Vote_req)) in
  let p, _ = Quorum_commit.part_step p (Log_done L_prepared) in
  p

(* Explorer counterexample: one pre-committed survivor plus rival
   pre-aborted reports.  The termination rule must count potential
   quorums (pre-decided-our-way plus uncertain) instead of demanding the
   rival set be empty — the old rule matched neither branch here and the
   group re-elected leaders forever. *)
let test_qc_leader_mixed_reports_commit () =
  let config = Quorum_commit.config ~all:[ 0; 1; 2 ] () in
  (* Vc = Va = 2.  Self (site 0) is uncertain and lowest-id, so its
     decision timeout elects it leader. *)
  let p = qc_uncertain ~config ~self:0 ~coordinator:1 in
  let p, actions = Quorum_commit.part_step p (Timeout T_decision) in
  Alcotest.(check (list action)) "election: collect states at epoch (1,0)"
    [ Send (1, Pq_state_req (1, 0)); Send (2, Pq_state_req (1, 0));
      Set_timer (T_state, timeouts.decision_wait) ]
    actions;
  let p, actions =
    Quorum_commit.part_step p (Recv (1, Pq_state_report ((1, 0), P_precommitted)))
  in
  Alcotest.(check (list action)) "still collecting" [] actions;
  (* Mixed picture: 1 pre-committed, 2 pre-aborted, self uncertain.
     |PC ∪ uncertain| = 2 ≥ Vc with a pre-committed witness, so the
     leader drives itself to pre-commit (commit takes precedence). *)
  let p, actions =
    Quorum_commit.part_step p (Recv (2, Pq_state_report ((1, 0), P_preaborted)))
  in
  Alcotest.(check (list action)) "drive commit through self"
    [ Set_timer (T_precommit_ack, timeouts.decision_wait);
      Log (L_precommit, `Forced) ]
    actions;
  (* Self pre-committed makes |PC| = 2 = Vc: decide. *)
  let p, actions = Quorum_commit.part_step p (Log_done L_precommit) in
  Alcotest.(check (list action)) "commit at quorum"
    [ Clear_timer T_decision; Clear_timer T_resend; Clear_timer T_state;
      Clear_timer T_precommit_ack; Log (L_decision Commit, `Forced) ]
    actions;
  let p, actions = Quorum_commit.part_step p (Log_done (L_decision Commit)) in
  Alcotest.(check (list action)) "leader distributes"
    [ Send (1, Decision_msg Commit); Send (2, Decision_msg Commit);
      Deliver Commit ]
    actions;
  Alcotest.(check bool) "decided commit" true
    (Quorum_commit.part_decision p = Some Commit)

(* The pre-abort mirror: with no site pre-committed, commit is never
   driven, so the uncertain leader drives the uncertain rest to pre-abort
   and itself first. *)
let test_qc_leader_drives_preabort () =
  let config = Quorum_commit.config ~all:[ 0; 1; 2 ] () in
  let p = qc_uncertain ~config ~self:0 ~coordinator:1 in
  let p, _ = Quorum_commit.part_step p (Timeout T_decision) in
  let p, _ =
    Quorum_commit.part_step p (Recv (1, Pq_state_report ((1, 0), P_preaborted)))
  in
  let p, actions =
    Quorum_commit.part_step p (Recv (2, Pq_state_report ((1, 0), P_uncertain)))
  in
  Alcotest.(check (list action)) "drive abort through self and site 2"
    [ Send (2, Pq_preabort (1, 0));
      Set_timer (T_precommit_ack, timeouts.decision_wait);
      Log (L_preabort, `Forced) ]
    actions;
  (* Self pre-aborted makes |PA| = 2 = Va: decide. *)
  let p, actions = Quorum_commit.part_step p (Log_done L_preabort) in
  Alcotest.(check (list action)) "abort at quorum"
    [ Clear_timer T_decision; Clear_timer T_resend; Clear_timer T_state;
      Clear_timer T_precommit_ack; Log (L_decision Abort, `Forced) ]
    actions;
  Alcotest.(check bool) "deciding abort" true
    (Quorum_commit.part_decision p = Some Abort)

let test_qc_leader_mixed_reports_abort () =
  let config = Quorum_commit.config ~all:[ 0; 1; 2 ] () in
  (* Self (site 0) reaches pre-abort under the original coordinator. *)
  let p = qc_uncertain ~config ~self:0 ~coordinator:1 in
  let p, _ = Quorum_commit.part_step p (Recv (1, Pq_preabort (0, 1))) in
  let p, _ = Quorum_commit.part_step p (Log_done L_preabort) in
  let p, _ = Quorum_commit.part_step p (Timeout T_decision) in
  let p, _ =
    Quorum_commit.part_step p (Recv (1, Pq_state_report ((1, 0), P_precommitted)))
  in
  (* 1 pre-committed vs 2 pre-aborted, nobody uncertain: the commit side
     cannot reach Vc = 2, the abort side holds Va = 2 already.  The old
     "rival set must be empty" rule blocked here. *)
  let p, actions =
    Quorum_commit.part_step p (Recv (2, Pq_state_report ((1, 0), P_preaborted)))
  in
  Alcotest.(check (list action)) "abort at quorum"
    [ Clear_timer T_decision; Clear_timer T_resend; Clear_timer T_state;
      Clear_timer T_precommit_ack; Log (L_decision Abort, `Forced) ]
    actions;
  let p, _ = Quorum_commit.part_step p (Log_done (L_decision Abort)) in
  Alcotest.(check bool) "decided abort" true
    (Quorum_commit.part_decision p = Some Abort)

(* Explorer counterexample: the presumptive leader (lowest-id site)
   crashed before its prepared record became durable and recovered with
   no memory of the transaction.  It answers [Decision_unknown]; the
   followers waited for its election forever.  The asker must usurp. *)
let test_qc_usurps_amnesiac_leader () =
  let config = Quorum_commit.config ~all:[ 0; 1; 2 ] () in
  let p = qc_uncertain ~config ~self:1 ~coordinator:0 in
  let p, actions = Quorum_commit.part_step p (Recv (0, Decision_unknown)) in
  Alcotest.(check (list action)) "usurps: collects states itself"
    [ Send (0, Pq_state_req (1, 1)); Send (2, Pq_state_req (1, 1));
      Set_timer (T_state, timeouts.decision_wait) ]
    actions;
  ignore p;
  (* "Unknown" from a higher-id peer is not an election cue. *)
  let p = qc_uncertain ~config ~self:1 ~coordinator:0 in
  let _, actions = Quorum_commit.part_step p (Recv (2, Decision_unknown)) in
  Alcotest.(check (list action)) "non-leader unknown ignored" [] actions

(* [Decision_unknown] is reserved for memoryless sites: anyone holding
   live protocol state for the transaction stays silent on
   [Decision_req], or answers with the decision once it has one. *)
let test_qc_live_state_silent_on_decision_req () =
  let config = Quorum_commit.config ~all:[ 0; 1; 2 ] () in
  let p = qc_uncertain ~config ~self:1 ~coordinator:0 in
  let p, actions = Quorum_commit.part_step p (Recv (2, Decision_req)) in
  Alcotest.(check (list action)) "uncertain participant silent" [] actions;
  let p, _ = Quorum_commit.part_step p (Recv (0, Decision_msg Abort)) in
  let p, _ = Quorum_commit.part_step p (Log_done (L_decision Abort)) in
  let _, actions = Quorum_commit.part_step p (Recv (2, Decision_req)) in
  Alcotest.(check (list action)) "finished participant answers"
    [ Send (2, Decision_msg Abort) ]
    actions;
  let c = Quorum_commit.coordinator ~config ~self:0 in
  let c, _ = Quorum_commit.coord_step c Start in
  let _, actions = Quorum_commit.coord_step c (Recv (1, Decision_req)) in
  Alcotest.(check (list action)) "undecided coordinator silent" [] actions

(* Explorer counterexample: a leader elected during a coordinator outage
   decides while the coordinator is still collecting precommit acks; the
   participants fence the coordinator's stale epoch, so without adoption
   it resends [Pq_precommit] forever and never delivers to its client. *)
let test_qc_deposed_coordinator_adopts_decision () =
  let config = Quorum_commit.config ~all:[ 0; 1; 2 ] () in
  let c = Quorum_commit.coordinator ~config ~self:0 in
  let c, _ = Quorum_commit.coord_step c Start in
  let c, actions = Quorum_commit.coord_step c (Recv (1, Decision_msg Abort)) in
  Alcotest.(check (list action)) "adopts the rival decision"
    [ Clear_timer T_votes; Clear_timer T_precommit_ack; Clear_timer T_resend;
      Deliver Abort; Log (L_decision Abort, `Lazy) ]
    actions;
  Alcotest.(check bool) "decided" true
    (Quorum_commit.coord_decision c = Some Abort)

(* 3PC flavour of the amnesiac-leader usurpation, driven to completion:
   the recovered memoryless site pledges abort in its state report, so
   the usurper terminates the whole group. *)
let test_3pc_usurps_amnesiac_leader () =
  let all = [ 0; 1; 2 ] in
  let p = Three_pc.participant ~self:1 ~coordinator:0 ~all ~vote:true in
  let p, _ = Three_pc.part_step p (Recv (0, Vote_req)) in
  let p, _ = Three_pc.part_step p (Log_done L_prepared) in
  let p, actions = Three_pc.part_step p (Recv (0, Decision_unknown)) in
  Alcotest.(check (list action)) "usurps: collects states"
    [ Send (0, State_req); Send (2, State_req);
      Set_timer (T_state, timeouts.decision_wait) ]
    actions;
  let p, actions = Three_pc.part_step p (Recv (0, State_report P_aborted)) in
  Alcotest.(check (list action)) "collecting" [] actions;
  let p, actions = Three_pc.part_step p (Recv (2, State_report P_uncertain)) in
  Alcotest.(check (list action)) "amnesiac pledge decides abort"
    [ Clear_timer T_decision; Clear_timer T_resend; Clear_timer T_state;
      Clear_timer T_precommit_ack; Log (L_decision Abort, `Forced) ]
    actions;
  let p, _ = Three_pc.part_step p (Log_done (L_decision Abort)) in
  Alcotest.(check bool) "decided abort" true
    (Three_pc.part_decision p = Some Abort)

let test_3pc_live_state_silent_on_decision_req () =
  let all = [ 0; 1; 2 ] in
  let p = Three_pc.participant ~self:1 ~coordinator:0 ~all ~vote:true in
  let p, _ = Three_pc.part_step p (Recv (0, Vote_req)) in
  let p, _ = Three_pc.part_step p (Log_done L_prepared) in
  let _, actions = Three_pc.part_step p (Recv (2, Decision_req)) in
  Alcotest.(check (list action)) "uncertain participant silent" [] actions;
  let c = Three_pc.coordinator ~participants:[ 1; 2 ] in
  let c, _ = Three_pc.coord_step c Start in
  let _, actions = Three_pc.coord_step c (Recv (1, Decision_req)) in
  Alcotest.(check (list action)) "undecided coordinator silent" [] actions

(* --- Paxos Commit degenerate case: F = 0 ≡ 2PC presumed-nothing ---------- *)

(* Gray & Lamport's reduction: with F = 0 Paxos Commit has a single
   acceptor co-located with the coordinator, ballot 0 never loses, and
   the message, log, and timer pattern collapses to exactly two-phase
   commit with the presumed-nothing discipline.  We prove the claim
   operationally rather than by inspection: every schedule the sandbox
   can produce — failure-free, crashed, and crash-then-recovered —
   must yield a byte-identical outcome fingerprint under both
   protocols: same decisions at the same sites, same message count,
   same forced/lazy write counts, same blocking verdict, same step and
   timeout totals. *)

let outcome_fingerprint (o : Sandbox.outcome) =
  let dec =
    o.Sandbox.decisions
    |> List.map (fun (s, d) ->
           Printf.sprintf "%d:%c" s (match d with Commit -> 'C' | Abort -> 'A'))
    |> String.concat ","
  in
  Printf.sprintf
    "dec=[%s] agree=%b all=%b msgs=%d forced=%d lazy=%d blocked=%b steps=%d \
     timeouts=%d"
    dec o.agreement o.all_decided o.messages o.forced_writes o.lazy_writes
    o.blocked o.steps o.timeouts_fired

let check_equiv name ?(crashes = []) ?(recoveries = []) ?max_steps ~seed ~sites
    ~votes () =
  let run proto =
    Sandbox.run ~seed ~crashes ~recoveries ?max_steps ~proto ~sites ~votes ()
  in
  let paxos = run (Commit_protocol.Paxos_commit { f = Some 0 }) in
  let prn = run (Commit_protocol.Two_phase Two_pc.Presumed_nothing) in
  Alcotest.(check string)
    name
    (outcome_fingerprint prn)
    (outcome_fingerprint paxos)

let vote_patterns sites =
  let one_no i =
    Array.init sites (fun j -> j <> i)
  in
  [ Array.make sites true; Array.make sites false; one_no 0;
    one_no (sites - 1); one_no (sites / 2) ]

let test_paxos_f0_matches_prn_failure_free () =
  List.iter
    (fun sites ->
      List.iter
        (fun votes ->
          (* The canonical FIFO cost-measurement schedule first... *)
          let fifo proto = Sandbox.run_fifo ~proto ~sites ~votes () in
          Alcotest.(check string)
            (Printf.sprintf "fifo sites=%d" sites)
            (outcome_fingerprint
               (fifo (Commit_protocol.Two_phase Two_pc.Presumed_nothing)))
            (outcome_fingerprint
               (fifo (Commit_protocol.Paxos_commit { f = Some 0 })));
          (* ...then a spread of randomized interleavings. *)
          for seed = 1 to 25 do
            check_equiv
              (Printf.sprintf "sites=%d seed=%d" sites seed)
              ~seed ~sites ~votes ()
          done)
        (vote_patterns sites))
    [ 2; 3; 5 ]

let test_paxos_f0_matches_prn_under_crashes () =
  let sites = 3 in
  List.iter
    (fun votes ->
      for victim = 0 to sites - 1 do
        for seed = 1 to 12 do
          let k = 3 + (seed mod 9) in
          (* Crash without recovery: both protocols must block (or not)
             identically — a dead F = 0 coordinator is as fatal to Paxos
             as a dead 2PC coordinator, its sole acceptor died with it. *)
          check_equiv
            (Printf.sprintf "crash s%d@%d seed=%d" victim k seed)
            ~crashes:[ (victim, k) ] ~max_steps:2_000 ~seed ~sites ~votes ();
          (* Crash then recover: the recovered machines must replay the
             same presumption, redistribution, and inquiry traffic. *)
          check_equiv
            (Printf.sprintf "crash+recover s%d@%d seed=%d" victim k seed)
            ~crashes:[ (victim, k) ]
            ~recoveries:[ (victim, 40) ]
            ~max_steps:2_000 ~seed ~sites ~votes ()
        done
      done)
    [ [| true; true; true |]; [| true; false; true |]; [| false; true; true |] ]

let test_paxos_f0_matches_prn_double_fault () =
  (* Coordinator and one participant both crash; only the coordinator
     recovers.  Exercises the recovered-coordinator presumption path and
     the Notice_down pending-set pruning on both sides. *)
  let sites = 4 in
  let votes = [| true; true; true; true |] in
  for seed = 1 to 10 do
    check_equiv
      (Printf.sprintf "double fault seed=%d" seed)
      ~crashes:[ (0, 5); (2, 8) ]
      ~recoveries:[ (0, 30) ]
      ~max_steps:2_000 ~seed ~sites ~votes ()
  done

let () =
  Alcotest.run "commit-steps"
    [
      ( "2pc-coordinator",
        [
          Alcotest.test_case "PrA commit walk" `Quick
            test_pra_coordinator_commit_walk;
          Alcotest.test_case "PrA abort is lazy" `Quick
            test_pra_coordinator_abort_is_lazy;
          Alcotest.test_case "PrN abort forced with acks" `Quick
            test_prn_coordinator_abort_is_forced_with_acks;
          Alcotest.test_case "PrC forces collecting first" `Quick
            test_prc_coordinator_forces_collecting_first;
        ] );
      ( "2pc-participant",
        [
          Alcotest.test_case "yes walk" `Quick test_participant_yes_walk;
          Alcotest.test_case "no vote aborts unilaterally" `Quick
            test_participant_no_vote_aborts_unilaterally;
          Alcotest.test_case "timeout asks around" `Quick
            test_participant_timeout_asks_around;
          Alcotest.test_case "read-only forgets" `Quick
            test_read_only_participant_forgets;
        ] );
      ( "2pc-recovery",
        [
          Alcotest.test_case "recovered coordinator redistributes" `Quick
            test_recovered_coordinator_redistributes;
          Alcotest.test_case "PrC commit needs nothing" `Quick
            test_recovered_prc_commit_needs_nothing;
          Alcotest.test_case "PrC collecting aborts" `Quick
            test_recovered_prc_collecting_aborts;
          Alcotest.test_case "nothing logged presumes" `Quick
            test_recovered_coordinator_presumes;
          Alcotest.test_case "recovered participant asks around" `Quick
            test_recovered_participant_asks_around;
          Alcotest.test_case "recovered outcomes by variant" `Quick
            test_recovered_participant_outcomes_by_variant;
        ] );
      ( "2pc-sweep-regressions",
        [
          Alcotest.test_case "idle participant adopts decision" `Quick
            test_idle_participant_adopts_decision;
          Alcotest.test_case "forgotten participant re-acks" `Quick
            test_forgotten_participant_reacks;
          Alcotest.test_case "early decision-req gets unknown" `Quick
            test_early_decision_req_gets_unknown;
        ] );
      ( "3pc",
        [
          Alcotest.test_case "full walk" `Quick test_3pc_walk;
          Alcotest.test_case "participant precommit phase" `Quick
            test_3pc_participant_precommit_phase;
          Alcotest.test_case "duplicate precommit re-acked" `Quick
            test_3pc_precommitted_reacks_duplicate_precommit;
          Alcotest.test_case "finished re-acks resent decision" `Quick
            test_3pc_finished_reacks_resent_decision;
        ] );
      ( "explorer-regressions",
        [
          Alcotest.test_case "QC mixed reports commit" `Quick
            test_qc_leader_mixed_reports_commit;
          Alcotest.test_case "QC mixed reports abort" `Quick
            test_qc_leader_mixed_reports_abort;
          Alcotest.test_case "QC usurps amnesiac leader" `Quick
            test_qc_usurps_amnesiac_leader;
          Alcotest.test_case "QC live state silent on decision-req" `Quick
            test_qc_live_state_silent_on_decision_req;
          Alcotest.test_case "QC deposed coordinator adopts" `Quick
            test_qc_deposed_coordinator_adopts_decision;
          Alcotest.test_case "3PC usurps amnesiac leader" `Quick
            test_3pc_usurps_amnesiac_leader;
          Alcotest.test_case "3PC live state silent on decision-req" `Quick
            test_3pc_live_state_silent_on_decision_req;
        ] );
      ( "paxos-f0-equivalence",
        [
          Alcotest.test_case "failure-free schedules" `Quick
            test_paxos_f0_matches_prn_failure_free;
          Alcotest.test_case "crash and recovery schedules" `Quick
            test_paxos_f0_matches_prn_under_crashes;
          Alcotest.test_case "double fault" `Quick
            test_paxos_f0_matches_prn_double_fault;
        ] );
      ( "quorum-commit",
        [
          Alcotest.test_case "epoch guards" `Quick
            test_qc_participant_rejects_stale_epochs;
          Alcotest.test_case "commits at quorum" `Quick
            test_qc_coordinator_commits_at_quorum;
          Alcotest.test_case "finished re-acks resent decision" `Quick
            test_qc_finished_reacks_resent_decision;
          Alcotest.test_case "leader drives pre-abort" `Quick
            test_qc_leader_drives_preabort;
        ] );
    ]
