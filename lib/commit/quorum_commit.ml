open Rt_types
open Protocol

type config = {
  all : Ids.site_id list;
  commit_quorum : int;
  abort_quorum : int;
}

let config ~all ?commit_quorum ?abort_quorum () =
  let n = List.length all in
  if n = 0 then invalid_arg "Quorum_commit.config: no participants";
  let majority = (n / 2) + 1 in
  let vc = Option.value commit_quorum ~default:majority in
  let va = Option.value abort_quorum ~default:majority in
  if vc <= 0 || va <= 0 || vc > n || va > n then
    invalid_arg "Quorum_commit.config: quorum out of range";
  if vc + va <= n then
    invalid_arg "Quorum_commit.config: Vc + Va must exceed the site count";
  { all; commit_quorum = vc; abort_quorum = va }

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

type coord_phase =
  | C_init
  | C_collecting of { pending : Sset.t; yes : Sset.t }
  | C_logging_precommit
  | C_precommit_wait of { pc : Sset.t; pending : Sset.t; blocked : bool }
  | C_logging_decision of { d : decision; yes : Sset.t }
  | C_abort_wait of { await : Sset.t }
  | C_done of decision

type coord = {
  c_cfg : config;
  c_self : Ids.site_id;
  c_all : Sset.t;
  c_phase : coord_phase;
}

let coordinator ~config ~self =
  {
    c_cfg = config;
    c_self = self;
    c_all = Sset.of_list config.all;
    c_phase = C_init;
  }

let coord_decision c =
  match c.c_phase with
  | C_logging_decision { d; _ } | C_done d -> Some d
  | C_abort_wait _ -> Some Abort
  | _ -> None

let coord_blocked c =
  match c.c_phase with
  | C_precommit_wait { blocked; _ } -> blocked
  | _ -> false

let epoch0 c : epoch = (0, c.c_self)

let coord_abort c ~yes =
  ( { c with c_phase = C_logging_decision { d = Abort; yes } },
    [ Clear_timer T_votes; Log (L_decision Abort, `Forced) ] )

let coord_check_commit c ~pc ~pending =
  if Sset.cardinal pc >= c.c_cfg.commit_quorum then
    ( { c with c_phase = C_logging_decision { d = Commit; yes = c.c_all } },
      [ Clear_timer T_precommit_ack; Clear_timer T_resend;
        Log (L_decision Commit, `Forced) ] )
  else
    ({ c with c_phase = C_precommit_wait { pc; pending; blocked = false } }, [])

let coord_step c input =
  match (c.c_phase, input) with
  | C_init, Start ->
      ( { c with c_phase = C_collecting { pending = c.c_all; yes = Sset.empty } },
        send_to c.c_all Vote_req
        @ [ Set_timer (T_votes, default_timeouts.vote_collect) ] )
  | C_collecting { pending; yes }, Recv (src, Vote_yes) ->
      let pending = Sset.remove src pending in
      let yes = Sset.add src yes in
      if Sset.is_empty pending then
        ( { c with c_phase = C_logging_precommit },
          [ Clear_timer T_votes; Log (L_precommit, `Forced) ] )
      else ({ c with c_phase = C_collecting { pending; yes } }, [])
  | C_collecting { yes; _ }, Recv (src, Vote_no) ->
      coord_abort c ~yes:(Sset.remove src yes)
  | C_collecting { yes; _ }, Timeout T_votes -> coord_abort c ~yes
  | C_collecting { pending; yes }, Peer_down p when Sset.mem p pending ->
      coord_abort c ~yes
  | C_logging_precommit, Log_done L_precommit ->
      ( { c with
          c_phase = C_precommit_wait
              { pc = Sset.empty; pending = c.c_all; blocked = false } },
        send_to c.c_all (Pq_precommit (epoch0 c))
        @ [ Set_timer (T_precommit_ack, default_timeouts.decision_wait) ] )
  | C_precommit_wait { pc; pending; _ }, Recv (src, Pq_precommit_ack e)
    when epoch_compare e (epoch0 c) = 0 ->
      coord_check_commit c ~pc:(Sset.add src pc) ~pending:(Sset.remove src pending)
  | C_precommit_wait { pc; pending; blocked }, Timeout (T_precommit_ack | T_resend)
    ->
      if Sset.cardinal pc >= c.c_cfg.commit_quorum then
        coord_check_commit c ~pc ~pending
      else
        (* Quorum not reachable: keep trying; the blocked flag is the
           measurement hook for experiment F5/F8. *)
        ( { c with c_phase = C_precommit_wait { pc; pending; blocked = true } },
          send_to pending (Pq_precommit (epoch0 c))
          @ [ Set_timer (T_resend, default_timeouts.resend_every) ]
          @ (if blocked then [] else [ Blocked ]) )
  | C_logging_decision { d = Commit; _ }, Log_done (L_decision Commit) ->
      ( { c with c_phase = C_done Commit },
        send_to c.c_all (Decision_msg Commit)
        @ [ Deliver Commit; Log (L_end, `Lazy) ] )
  | C_logging_decision { d = Abort; yes }, Log_done (L_decision Abort) ->
      if Sset.is_empty yes then
        ({ c with c_phase = C_done Abort }, [ Deliver Abort; Log (L_end, `Lazy) ])
      else
        ( { c with c_phase = C_abort_wait { await = yes } },
          send_to yes (Decision_msg Abort)
          @ [ Set_timer (T_resend, default_timeouts.resend_every);
              Deliver Abort ] )
  | C_abort_wait { await }, Recv (src, Decision_ack) ->
      let await = Sset.remove src await in
      if Sset.is_empty await then
        ( { c with c_phase = C_done Abort },
          [ Clear_timer T_resend; Log (L_end, `Lazy) ] )
      else ({ c with c_phase = C_abort_wait { await } }, [])
  | C_abort_wait { await }, Timeout T_resend ->
      ( c,
        send_to await (Decision_msg Abort)
        @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )
  | (C_done d | C_logging_decision { d; _ }), Recv (src, Decision_req) ->
      (c, [ Send (src, Decision_msg d) ])
  (* Still undecided: stay silent rather than answer [Decision_unknown].
     Our own timeouts will terminate us, so the asker loses nothing by
     waiting — whereas "unknown" is the participants' cue to usurp the
     election, which is only warranted when the asked site has no memory
     of the transaction at all. *)
  | _, Recv (_, Decision_req) -> (c, [])
  (* A termination protocol elected at a higher epoch can out-decide a
     coordinator that is still collecting votes or precommit acks.  The
     deposed coordinator must adopt the decision: its own pre-decision
     messages are epoch-fenced by every participant, so without adoption
     it resends them forever and the client never gets an outcome. *)
  | (C_init | C_collecting _ | C_logging_precommit | C_precommit_wait _),
    Recv (_, Decision_msg d) ->
      ( { c with c_phase = C_done d },
        [ Clear_timer T_votes; Clear_timer T_precommit_ack;
          Clear_timer T_resend; Deliver d; Log (L_decision d, `Lazy) ] )
  | C_abort_wait _, Recv (_, Decision_msg Abort) ->
      (* Our own abort came back via a peer; keep waiting for acks. *)
      (c, [])
  | _, (Recv _ | Timeout _ | Log_done _ | Peer_down _ | Peers_reachable _
        | Start) ->
      (c, [])

(* ------------------------------------------------------------------ *)
(* Participant                                                         *)
(* ------------------------------------------------------------------ *)

type base =
  | B_idle
  | B_logging_prepared
  | B_uncertain
  | B_logging_pre of
      { side : decision; ack_to : Ids.site_id option; at : epoch }
  | B_pre of decision  (* pre-committed or pre-aborted *)
  | B_logging_outcome of decision
  | B_finished of decision

type leader_phase =
  | L_collect of {
      awaiting : Sset.t;
      reports : (Ids.site_id * participant_state) list;
    }
  | L_drive of { side : decision; pre : Sset.t; awaiting : Sset.t }
      (* driving the uncertain sites to pre-decide [side] *)
  | L_decided of decision

type role = R_normal | R_follower | R_leader of leader_phase

type part = {
  p_cfg : config;
  p_self : Ids.site_id;
  p_coordinator : Ids.site_id;
  p_vote : bool;
  p_up : Sset.t;  (* participants currently reachable, self included *)
  p_epoch : epoch;  (* highest epoch seen *)
  p_base : base;
  p_role : role;
  p_blocked : bool;
}

let participant ~config ~self ~coordinator ~vote =
  {
    p_cfg = config;
    p_self = self;
    p_coordinator = coordinator;
    p_vote = vote;
    p_up = Sset.of_list config.all;
    p_epoch = (0, coordinator);
    p_base = B_idle;
    p_role = R_normal;
    p_blocked = false;
  }

let part_decision p =
  match p.p_base with
  | B_logging_outcome d | B_finished d -> Some d
  | _ -> None

let part_state p =
  match p.p_base with
  | B_idle | B_logging_prepared | B_uncertain -> P_uncertain
  | B_logging_pre { side = Commit; _ } | B_pre Commit -> P_precommitted
  | B_logging_pre { side = Abort; _ } | B_pre Abort -> P_preaborted
  | B_logging_outcome Commit | B_finished Commit -> P_committed
  | B_logging_outcome Abort | B_finished Abort -> P_aborted

let part_blocked p = p.p_blocked

let part_reachable_update p ~up =
  let up = Sset.add p.p_self (Sset.of_list up) in
  { p with p_up = Sset.inter up (Sset.of_list p.p_cfg.all) }

(* Each side's pre-decision vocabulary.  The bases and action lists are
   constants, so keying by side allocates nothing on the pre-commit path. *)
let pre_msg side e =
  match side with Commit -> Pq_precommit e | Abort -> Pq_preabort e

let pre_ack side e =
  match side with Commit -> Pq_precommit_ack e | Abort -> Pq_preabort_ack e

let pre_tag = function Commit -> L_precommit | Abort -> L_preabort
let pre_base = function Commit -> B_pre Commit | Abort -> B_pre Abort

let log_pre = function
  | Commit -> [ Clear_timer T_decision; Log (L_precommit, `Forced) ]
  | Abort -> [ Clear_timer T_decision; Log (L_preabort, `Forced) ]

let side_quorum cfg = function
  | Commit -> cfg.commit_quorum | Abort -> cfg.abort_quorum

let log_outcome p d =
  match p.p_base with
  | B_logging_outcome _ | B_finished _ -> (p, [])
  | _ ->
      ( { p with p_base = B_logging_outcome d; p_blocked = false },
        [ Clear_timer T_decision; Clear_timer T_resend; Clear_timer T_state;
          Clear_timer T_precommit_ack; Log (L_decision d, `Forced) ] )

(* --- leader logic -------------------------------------------------- *)

let next_epoch p : epoch = (fst p.p_epoch + 1, p.p_self)

let leader_blocked p =
  ( { p with p_role = R_follower; p_blocked = true },
    [ Set_timer (T_resend, default_timeouts.resend_every) ]
    @ (if p.p_blocked then [] else [ Blocked ]) )

let leader_decided p d =
  let p, actions = log_outcome p d in
  ({ p with p_role = R_leader (L_decided d) }, actions)

(* Drive the uncertain sites to pre-decide [side], pre-deciding
   ourselves first if we are one of them. *)
let leader_drive p ~side ~pre ~uncertain =
  let targets = Sset.remove p.p_self uncertain in
  let sends = send_to targets (pre_msg side p.p_epoch) in
  let timer = [ Set_timer (T_precommit_ack, default_timeouts.decision_wait) ] in
  let role = R_leader (L_drive { side; pre; awaiting = targets }) in
  if Sset.mem p.p_self uncertain then
    ( { p with
        p_base = B_logging_pre { side; ack_to = None; at = p.p_epoch };
        p_role = role },
      sends @ timer @ [ Log (pre_tag side, `Forced) ] )
  else if Sset.cardinal pre >= side_quorum p.p_cfg side then
    leader_decided p side
  else ({ p with p_role = role }, sends @ timer)

(* Apply the quorum termination rules to collected reports. *)
let leader_apply p reports =
  let some st = List.exists (fun (_, s) -> s = st) reports in
  let sites st =
    List.filter_map (fun (s, s') -> if s' = st then Some s else None) reports
    |> Sset.of_list
  in
  if some P_committed then leader_decided p Commit
  else if some P_aborted then leader_decided p Abort
  else begin
    let pc = sites P_precommitted and pa = sites P_preaborted in
    let uncertain = sites P_uncertain in
    (* Quorum termination counts potential quorum members: sites already
       pre-decided our way plus uncertain sites we can still drive.  Sites
       pre-decided the *other* way are not obstacles — quorum intersection
       (Vc + Va > N) plus epoch fencing guarantees that if the rival
       decision had actually been reached, at least one reporting site
       would be finished or pre-decided against us in every quorum we can
       assemble, making the count fall short.  Requiring the rival set to
       be empty (as this code once did) livelocks on mixed reports: one
       pre-committed survivor plus a pre-aborted majority matched neither
       rule, so every elected leader blocked, timed out, and re-elected
       forever.  The one asymmetry: commit is driven only when some site
       has already pre-committed. *)
    let reach side pre =
      Sset.cardinal (Sset.union pre uncertain) >= side_quorum p.p_cfg side
    in
    if (not (Sset.is_empty pc)) && reach Commit pc then
      leader_drive p ~side:Commit ~pre:pc ~uncertain
    else if reach Abort pa then leader_drive p ~side:Abort ~pre:pa ~uncertain
    else leader_blocked p
  end

let become_leader p =
  let e = next_epoch p in
  let p = { p with p_epoch = e } in
  let awaiting = Sset.remove p.p_self p.p_up in
  let reports = [ (p.p_self, part_state p) ] in
  if Sset.is_empty awaiting then leader_apply p reports
  else
    ( { p with p_role = R_leader (L_collect { awaiting; reports }) },
      send_to awaiting (Pq_state_req e)
      @ [ Set_timer (T_state, default_timeouts.decision_wait) ] )

let start_termination p =
  match Sset.min_elt_opt p.p_up with
  | Some l when l = p.p_self -> become_leader p
  | Some _ | None ->
      (* Follow the presumptive leader, but also ask peers directly in
         case one of them already knows the outcome. *)
      ( { p with p_role = R_follower },
        send_to (Sset.remove p.p_self p.p_up) Decision_req
        @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )

(* A driving leader counted [pre]: decide once it is a quorum, block once
   nobody is left to answer. *)
let leader_check p ~side ~pre ~awaiting =
  if Sset.cardinal pre >= side_quorum p.p_cfg side then leader_decided p side
  else if Sset.is_empty awaiting then leader_blocked p
  else ({ p with p_role = R_leader (L_drive { side; pre; awaiting }) }, [])

(* A pre-decision request for [side] at epoch [e]: an uncertain
   participant forces it and follows [src]; one already pre-decided that
   way re-acks at the new epoch.  Stale epochs and the other side are
   ignored. *)
let pre_request p ~src side e =
  match p.p_base with
  | _ when epoch_compare e p.p_epoch < 0 -> (p, [])
  | B_uncertain ->
      ( { p with p_epoch = e; p_role = R_follower;
                 p_base = B_logging_pre { side; ack_to = Some src; at = e } },
        log_pre side )
  | B_pre s when decision_equal s side ->
      ({ p with p_epoch = e }, [ Send (src, pre_ack side e) ])
  | _ -> (p, [])

(* --- main transition ------------------------------------------------ *)

let part_step p input =
  match (p.p_base, p.p_role, input) with
  | _, _, Peer_down s ->
      let p = { p with p_up = Sset.remove s p.p_up } in
      (match (p.p_base, p.p_role) with
      | (B_uncertain | B_pre _), R_normal when s = p.p_coordinator ->
          start_termination p
      | _ -> (p, []))
  (* Phase 1. *)
  | B_idle, R_normal, Recv (_, Vote_req) ->
      if p.p_vote then
        ({ p with p_base = B_logging_prepared }, [ Log (L_prepared, `Forced) ])
      else
        ( { p with p_base = B_finished Abort },
          [ Send (p.p_coordinator, Vote_no); Log (L_decision Abort, `Lazy);
            Deliver Abort ] )
  | B_logging_prepared, R_normal, Log_done L_prepared ->
      ( { p with p_base = B_uncertain },
        [ Send (p.p_coordinator, Vote_yes);
          Set_timer (T_decision, default_timeouts.decision_wait) ] )
  (* Pre-decisions, one path keyed by side. *)
  | _, _, Recv (src, Pq_precommit e) -> pre_request p ~src Commit e
  | _, _, Recv (src, Pq_preabort e) -> pre_request p ~src Abort e
  | B_logging_pre { side = Commit as side; ack_to; at }, _, Log_done L_precommit
  | B_logging_pre { side = Abort as side; ack_to; at }, _, Log_done L_preabort
    -> (
      let p = { p with p_base = pre_base side } in
      match (ack_to, p.p_role) with
      | Some src, _ ->
          ( p,
            [ Send (src, pre_ack side at);
              Set_timer (T_decision, default_timeouts.decision_wait) ] )
      | None, R_leader (L_drive { side = driving; pre; awaiting })
        when decision_equal driving side ->
          leader_check p ~side ~pre:(Sset.add p.p_self pre) ~awaiting
      | None, _ -> (p, []))
  (* Final decisions are accepted from anyone, any epoch — including
     while a pre-state log write is still in flight (its stale Log_done
     is ignored later). *)
  | ( (B_uncertain | B_pre _ | B_logging_prepared | B_logging_pre _),
      _,
      Recv (_, Decision_msg d) ) ->
      log_outcome p d
  | B_logging_outcome d, _, Log_done (L_decision d') when decision_equal d d'
    ->
      let finish = { p with p_base = B_finished d } in
      let ack =
        if decision_equal d Abort then [ Send (p.p_coordinator, Decision_ack) ]
        else []
      in
      let broadcast =
        match p.p_role with
        | R_leader _ ->
            send_to (Sset.remove p.p_self p.p_up) (Decision_msg d)
        | _ -> []
      in
      ({ finish with p_role = R_normal }, ack @ broadcast @ [ Deliver d ])
  (* Timeouts drive termination, whether we were following the original
     coordinator or an elected leader that went quiet. *)
  | ( (B_uncertain | B_pre _),
      (R_normal | R_follower),
      Timeout (T_decision | T_resend) ) ->
      start_termination p
  | _, R_leader (L_collect { awaiting = _; reports }), Timeout T_state ->
      if reports = [] then leader_blocked p else leader_apply p reports
  | _, R_leader (L_drive { side; pre; _ }), Timeout T_precommit_ack ->
      leader_check p ~side ~pre ~awaiting:Sset.empty
  (* Leader: collection and acks. *)
  | _, R_leader (L_collect { awaiting; reports }),
    Recv (src, Pq_state_report (e, st))
    when epoch_compare e p.p_epoch = 0 && Sset.mem src awaiting ->
      let awaiting = Sset.remove src awaiting in
      let reports = (src, st) :: reports in
      if Sset.is_empty awaiting then leader_apply p reports
      else ({ p with p_role = R_leader (L_collect { awaiting; reports }) }, [])
  | ( _, R_leader (L_drive { side = Commit as side; pre; awaiting }),
      Recv (src, Pq_precommit_ack e) )
  | ( _, R_leader (L_drive { side = Abort as side; pre; awaiting }),
      Recv (src, Pq_preabort_ack e) )
    when epoch_compare e p.p_epoch = 0 ->
      leader_check p ~side ~pre:(Sset.add src pre)
        ~awaiting:(Sset.remove src awaiting)
  (* Everyone answers state requests at current-or-higher epochs; doing so
     dethrones any stale local leadership. *)
  | _, _, Recv (src, Pq_state_req e) when epoch_compare e p.p_epoch >= 0 ->
      let role =
        match p.p_role with
        | R_leader _ when src <> p.p_self -> R_follower
        | r -> r
      in
      ( { p with p_epoch = e; p_role = role },
        [ Send (src, Pq_state_report (e, part_state p)) ]
        @
        match role with
        | R_follower -> [ Set_timer (T_resend, default_timeouts.resend_every) ]
        | _ -> [] )
  | (B_finished d | B_logging_outcome d), _, Recv (src, Decision_req) ->
      (p, [ Send (src, Decision_msg d) ])
  (* Undecided but holding live protocol state: stay silent.  We can run
     (or already are running) the election ourselves, so "unknown" — the
     cue for the asker to usurp the election — would only cause churn. *)
  | ( (B_uncertain | B_pre _ | B_logging_prepared | B_logging_pre _),
      _,
      Recv (_, Decision_req) ) ->
      (p, [])
  | _, _, Recv (src, Decision_req) -> (p, [ Send (src, Decision_unknown) ])
  (* A presumptive leader that answers "unknown" cannot terminate the
     transaction for us — typically it lost every trace of it in a crash
     (nothing in its recovered WAL to rebuild a machine from), so the
     election we are waiting for will never start.  Usurp it.  Concurrent
     leaders are harmless (epoch fencing), and collection terminates even
     through the amnesiac site: a memoryless site pledges abort when our
     [Pq_state_req] reaches it. *)
  | ( (B_uncertain | B_pre _),
      (R_normal | R_follower),
      Recv (src, Decision_unknown) )
    when Sset.min_elt_opt p.p_up = Some src ->
      become_leader p
  | B_finished _, _, Recv (src, Decision_msg _) ->
      (* Our decision ack was lost and the sender is resending: re-ack
         so an abort-wait coordinator can retire its resend loop. *)
      (p, [ Send (src, Decision_ack) ])
  | _, _, Peers_reachable up -> (part_reachable_update p ~up, [])
  | _, _, (Recv _ | Timeout _ | Log_done _ | Start) -> (p, [])

let participant_recovered ~config ~self ~coordinator ~state =
  let base =
    match state with
    | P_uncertain -> B_uncertain
    | P_precommitted -> B_pre Commit
    | P_preaborted -> B_pre Abort
    | P_committed -> B_finished Commit
    | P_aborted -> B_finished Abort
  in
  let p = participant ~config ~self ~coordinator ~vote:true in
  { p with p_base = base }

(* Recovered participants begin termination on [Start]. *)
let part_step p input =
  match (input, p.p_base, p.p_role) with
  | Start, (B_uncertain | B_pre _), R_normal ->
      start_termination p
  | _ -> part_step p input

(* ------------------------------------------------------------------ *)
(* Canonical description (explorer state fingerprinting)               *)
(* ------------------------------------------------------------------ *)

let cfg_str c =
  Printf.sprintf "all=%s;vc=%d;va=%d"
    (String.concat "," (List.map string_of_int (List.sort Int.compare c.all)))
    c.commit_quorum c.abort_quorum

let describe_coord c =
  let phase =
    match c.c_phase with
    | C_init -> "init"
    | C_collecting { pending; yes } ->
        Printf.sprintf "collecting{p=%s;y=%s}" (set_str pending) (set_str yes)
    | C_logging_precommit -> "logging-precommit"
    | C_precommit_wait { pc; pending; blocked } ->
        Printf.sprintf "precommit-wait{pc=%s;p=%s;b=%b}" (set_str pc)
          (set_str pending) blocked
    | C_logging_decision { d; yes } ->
        Printf.sprintf "logging-decision{%s;y=%s}" (dec_str d) (set_str yes)
    | C_abort_wait { await } ->
        Printf.sprintf "abort-wait{a=%s}" (set_str await)
    | C_done d -> Printf.sprintf "done{%s}" (dec_str d)
  in
  Printf.sprintf "qc-coord:%s:self=%d:%s" (cfg_str c.c_cfg) c.c_self phase

let describe_part p =
  let ack_str = function None -> "-" | Some s -> string_of_int s in
  let side_str = function Commit -> "commit" | Abort -> "abort" in
  let base =
    match p.p_base with
    | B_idle -> "idle"
    | B_logging_prepared -> "logging-prepared"
    | B_uncertain -> "uncertain"
    | B_logging_pre { side; ack_to; at } ->
        Printf.sprintf "logging-pre%s{ack=%s;at=%s}" (side_str side)
          (ack_str ack_to) (epoch_str at)
    | B_pre Commit -> "precommitted"
    | B_pre Abort -> "preaborted"
    | B_logging_outcome d -> Printf.sprintf "logging-outcome{%s}" (dec_str d)
    | B_finished d -> Printf.sprintf "finished{%s}" (dec_str d)
  in
  let role =
    match p.p_role with
    | R_normal -> "normal"
    | R_follower -> "follower"
    | R_leader (L_collect { awaiting; reports }) ->
        Printf.sprintf "leader-collect{a=%s;r=%s}" (set_str awaiting)
          (reports_str reports)
    | R_leader (L_drive { side; pre; awaiting }) ->
        let set = match side with Commit -> "pc" | Abort -> "pa" in
        Printf.sprintf "leader-drive-%s{%s=%s;a=%s}" (side_str side) set
          (set_str pre) (set_str awaiting)
    | R_leader (L_decided d) -> Printf.sprintf "leader-decided{%s}" (dec_str d)
  in
  Printf.sprintf "qc-part:%s:%d<-%d:v=%b:up=%s:e=%s:b=%b:%s:%s"
    (cfg_str p.p_cfg) p.p_self p.p_coordinator p.p_vote (set_str p.p_up)
    (epoch_str p.p_epoch) p.p_blocked base role
