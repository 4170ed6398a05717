open Rt_types
open Protocol

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

type coord_phase =
  | C_init
  | C_collecting of { pending : Sset.t; yes : Sset.t }
  | C_logging_precommit
  | C_precommit_wait of { await : Sset.t }
  | C_logging_decision of { d : decision; notify : Sset.t; await : Sset.t }
  | C_abort_wait of { await : Sset.t }
  | C_done of decision

type coord = {
  c_participants : Sset.t;
  c_phase : coord_phase;
}

let coordinator ~participants =
  if participants = [] then invalid_arg "Three_pc.coordinator: no participants";
  { c_participants = Sset.of_list participants;
    c_phase = C_init }

let coord_decision c =
  match c.c_phase with
  | C_logging_decision { d; _ } | C_done d -> Some d
  | C_abort_wait _ -> Some Abort
  | _ -> None

let coord_abort c ~yes ~pending =
  (* Notify everyone whose Yes might be in flight; expect acks only from
     known yes-voters (they are the ones holding a prepared record). *)
  ( { c with
      c_phase = C_logging_decision
          { d = Abort; notify = Sset.union yes pending; await = yes } },
    [ Clear_timer T_votes; Clear_timer T_precommit_ack;
      Log (L_decision Abort, `Forced) ] )

let coord_commit_logged c =
  (* Commit is final: broadcast and finish; recovering sites learn the
     outcome by asking around. *)
  ( { c with c_phase = C_done Commit },
    send_to c.c_participants (Decision_msg Commit)
    @ [ Deliver Commit; Log (L_end, `Lazy) ] )

let coord_step c input =
  match (c.c_phase, input) with
  | C_init, Start ->
      ( { c with c_phase = C_collecting { pending = c.c_participants;
                                          yes = Sset.empty } },
        send_to c.c_participants Vote_req
        @ [ Set_timer (T_votes, default_timeouts.vote_collect) ] )
  | C_collecting { pending; yes }, Recv (src, Vote_yes) ->
      let pending = Sset.remove src pending in
      let yes = Sset.add src yes in
      if Sset.is_empty pending then
        ( { c with c_phase = C_logging_precommit },
          [ Clear_timer T_votes; Log (L_precommit, `Forced) ] )
      else ({ c with c_phase = C_collecting { pending; yes } }, [])
  | C_collecting { pending; yes }, Recv (src, Vote_no) ->
      coord_abort c ~yes:(Sset.remove src yes)
        ~pending:(Sset.remove src pending)
  | C_collecting { pending; yes }, Timeout T_votes -> coord_abort c ~yes ~pending
  | C_collecting { pending; yes }, Peer_down p when Sset.mem p pending ->
      coord_abort c ~yes ~pending:(Sset.remove p pending)
  | C_logging_precommit, Log_done L_precommit ->
      ( { c with c_phase = C_precommit_wait { await = c.c_participants } },
        send_to c.c_participants Precommit_msg
        @ [ Set_timer (T_precommit_ack, default_timeouts.decision_wait) ] )
  | C_precommit_wait { await }, Recv (src, Precommit_ack) ->
      let await = Sset.remove src await in
      if Sset.is_empty await then
        ( { c with c_phase = C_logging_decision
                       { d = Commit; notify = c.c_participants;
                         await = Sset.empty } },
          [ Clear_timer T_precommit_ack; Log (L_decision Commit, `Forced) ] )
      else ({ c with c_phase = C_precommit_wait { await } }, [])
  | C_precommit_wait { await }, Peer_down p when Sset.mem p await ->
      (* Crashed sites recover into the pre-commit state and will learn the
         outcome; proceed with the operational ones. *)
      let await = Sset.remove p await in
      if Sset.is_empty await then
        ( { c with c_phase = C_logging_decision
                       { d = Commit; notify = c.c_participants;
                         await = Sset.empty } },
          [ Clear_timer T_precommit_ack; Log (L_decision Commit, `Forced) ] )
      else ({ c with c_phase = C_precommit_wait { await } }, [])
  | C_precommit_wait _, Timeout T_precommit_ack ->
      ( { c with c_phase = C_logging_decision
                     { d = Commit; notify = c.c_participants;
                       await = Sset.empty } },
        [ Log (L_decision Commit, `Forced) ] )
  | C_logging_decision { d = Commit; _ }, Log_done (L_decision Commit) ->
      coord_commit_logged c
  | C_logging_decision { d = Abort; notify; await }, Log_done (L_decision Abort)
    ->
      if Sset.is_empty await then
        ( { c with c_phase = C_done Abort },
          send_to notify (Decision_msg Abort)
          @ [ Deliver Abort; Log (L_end, `Lazy) ] )
      else
        ( { c with c_phase = C_abort_wait { await } },
          send_to notify (Decision_msg Abort)
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
  | C_abort_wait { await }, Peer_down p when Sset.mem p await ->
      let await = Sset.remove p await in
      if Sset.is_empty await then
        ( { c with c_phase = C_done Abort },
          [ Clear_timer T_resend; Log (L_end, `Lazy) ] )
      else ({ c with c_phase = C_abort_wait { await } }, [])
  | (C_done d | C_logging_decision { d; _ }), Recv (src, Decision_req) ->
      (c, [ Send (src, Decision_msg d) ])
  | C_abort_wait _, Recv (src, Decision_req) ->
      (c, [ Send (src, Decision_msg Abort) ])
  (* Still undecided: stay silent rather than answer [Decision_unknown].
     Our own timeouts will terminate us, so the asker loses nothing by
     waiting — whereas "unknown" is the participants' cue to usurp the
     election, which is only warranted when the asked site has no memory
     of the transaction at all. *)
  | _, Recv (_, Decision_req) -> (c, [])
  (* An elected termination leader can out-decide a coordinator that is
     still collecting votes or precommit acks (false suspicion: its
     timeout fired while the coordinator was merely slow).  The deposed
     coordinator adopts the decision instead of driving its own round to
     a stall — or, worse, to a conflicting outcome. *)
  | (C_init | C_collecting _ | C_logging_precommit | C_precommit_wait _),
    Recv (_, Decision_msg d) ->
      ( { c with c_phase = C_done d },
        [ Clear_timer T_votes; Clear_timer T_precommit_ack;
          Clear_timer T_resend; Deliver d; Log (L_decision d, `Lazy) ] )
  | _, (Recv _ | Timeout _ | Log_done _ | Peer_down _ | Peers_reachable _
        | Start) ->
      (c, [])

(* ------------------------------------------------------------------ *)
(* Participant (including the elected termination leader)              *)
(* ------------------------------------------------------------------ *)

type leader_phase =
  | L_collect of { awaiting : Sset.t; reports : (Ids.site_id * participant_state) list }
  | L_precommit_acks of { awaiting : Sset.t }
  | L_deciding of decision

type role =
  | R_normal  (** Following the original coordinator. *)
  | R_follower  (** In termination, waiting for an elected leader. *)
  | R_leader of leader_phase

type base =
  | B_idle
  | B_logging_prepared
  | B_uncertain
  | B_logging_precommit of { ack_to : Ids.site_id option }
  | B_precommitted
  | B_logging_outcome of decision
  | B_finished of decision

type part = {
  p_self : Ids.site_id;
  p_coordinator : Ids.site_id;
  p_all : Sset.t;  (* every participant site, self included *)
  p_vote : bool;
  p_up : Sset.t;  (* sites believed operational (participants only) *)
  p_coord_up : bool;
  p_base : base;
  p_role : role;
}

let participant ~self ~coordinator ~all ~vote =
  let all_set = Sset.of_list all in
  if not (Sset.mem self all_set) then
    invalid_arg "Three_pc.participant: self not in participant set";
  {
    p_self = self;
    p_coordinator = coordinator;
    p_all = all_set;
    p_vote = vote;
    p_up = all_set;
    p_coord_up = true;
    p_base = B_idle;
    p_role = R_normal;
  }

let part_decision p =
  match p.p_base with
  | B_logging_outcome d | B_finished d -> Some d
  | _ -> None

let part_state p =
  match p.p_base with
  | B_idle | B_logging_prepared | B_uncertain -> P_uncertain
  | B_logging_precommit _ | B_precommitted -> P_precommitted
  | B_logging_outcome Commit | B_finished Commit -> P_committed
  | B_logging_outcome Abort | B_finished Abort -> P_aborted

let part_blocked _ = false

let peers_up p = Sset.remove p.p_self p.p_up

(* The termination leader is the smallest operational participant id. *)
let leader_candidate p = Sset.min_elt_opt p.p_up

let finish p d =
  ({ p with p_base = B_finished d; p_role = R_normal }, [ Deliver d ])

let log_outcome p d =
  match p.p_base with
  | B_finished d' when decision_equal d d' -> (p, [])
  | B_logging_outcome _ | B_finished _ -> (p, [])
  | _ ->
      ( { p with p_base = B_logging_outcome d },
        [ Clear_timer T_decision; Clear_timer T_resend; Clear_timer T_state;
          Clear_timer T_precommit_ack; Log (L_decision d, `Forced) ] )

(* --- leader logic ------------------------------------------------- *)

let leader_outcome reports =
  let has s = List.exists (fun (_, st) -> st = s) reports in
  if has P_committed then `Decide Commit
  else if has P_aborted then `Decide Abort
  else if has P_precommitted then `Drive_precommit
  else `Decide Abort

let rec leader_apply p reports =
  match leader_outcome reports with
  | `Decide d ->
      let p, actions = log_outcome p d in
      ({ p with p_role = R_leader (L_deciding d) }, actions)
  | `Drive_precommit ->
      let uncertain =
        List.filter_map
          (fun (s, st) ->
            if st = P_uncertain && s <> p.p_self then Some s else None)
          reports
        |> Sset.of_list
      in
      let sends = send_to uncertain Precommit_msg in
      if part_state p = P_uncertain then begin
        (* Move self through pre-commit first; the ack is implicit. *)
        let p =
          { p with p_base = B_logging_precommit { ack_to = None };
                   p_role = R_leader (L_precommit_acks { awaiting = uncertain }) }
        in
        ( p,
          sends
          @ [ Log (L_precommit, `Forced);
              Set_timer (T_precommit_ack, default_timeouts.decision_wait) ] )
      end
      else if Sset.is_empty uncertain then
        let p, actions = log_outcome p Commit in
        ({ p with p_role = R_leader (L_deciding Commit) }, actions)
      else
        ( { p with p_role = R_leader (L_precommit_acks { awaiting = uncertain }) },
          sends
          @ [ Set_timer (T_precommit_ack, default_timeouts.decision_wait) ] )

and leader_collect_done p ~awaiting ~reports =
  (* Treat non-responders as crashed (crash-stop model). *)
  ignore awaiting;
  leader_apply p reports

let become_leader p =
  let awaiting = peers_up p in
  let reports = [ (p.p_self, part_state p) ] in
  if Sset.is_empty awaiting then leader_apply p reports
  else
    ( { p with p_role = R_leader (L_collect { awaiting; reports }) },
      send_to awaiting State_req
      @ [ Set_timer (T_state, default_timeouts.decision_wait) ] )

let start_termination p =
  match leader_candidate p with
  | Some l when l = p.p_self -> become_leader p
  | Some _ | None ->
      (* Wait for the leader to drive us, but also ask around directly:
         a peer that already knows the outcome (e.g. one that decided
         before we joined the termination) answers immediately. *)
      ( { p with p_role = R_follower },
        send_to (peers_up p) Decision_req
        @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )

(* --- main transition ----------------------------------------------- *)

let part_step p input =
  match (p.p_base, p.p_role, input) with
  (* Failure-detector updates are tracked in every state. *)
  | _, _, Peer_down s ->
      let p =
        { p with p_up = Sset.remove s p.p_up;
                 p_coord_up = p.p_coord_up && s <> p.p_coordinator }
      in
      (match (p.p_base, p.p_role) with
      | (B_uncertain | B_precommitted), R_normal
        when s = p.p_coordinator ->
          start_termination p
      | (B_uncertain | B_precommitted), R_follower -> (
          (* If the presumptive leader died, re-elect. *)
          match leader_candidate p with
          | Some l when l = p.p_self -> become_leader p
          | _ -> (p, []))
      | _, R_leader (L_collect { awaiting; reports }) when Sset.mem s awaiting
        ->
          let awaiting = Sset.remove s awaiting in
          if Sset.is_empty awaiting then
            leader_collect_done p ~awaiting ~reports
          else
            ( { p with
                p_role = R_leader (L_collect { awaiting; reports }) },
              [] )
      | _, R_leader (L_precommit_acks { awaiting }) when Sset.mem s awaiting ->
          let awaiting = Sset.remove s awaiting in
          if Sset.is_empty awaiting && p.p_base = B_precommitted then
            let p, actions = log_outcome p Commit in
            ({ p with p_role = R_leader (L_deciding Commit) }, actions)
          else
            ({ p with p_role = R_leader (L_precommit_acks { awaiting }) }, [])
      | _ -> (p, []))
  (* Normal phase 1. *)
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
  (* Pre-commit from the original coordinator or a termination leader. *)
  | B_uncertain, _, Recv (src, Precommit_msg) ->
      ( { p with p_base = B_logging_precommit { ack_to = Some src } },
        [ Clear_timer T_decision; Log (L_precommit, `Forced) ] )
  | B_logging_precommit { ack_to }, _, Log_done L_precommit -> (
      let p = { p with p_base = B_precommitted } in
      match (ack_to, p.p_role) with
      | Some src, _ ->
          ( p,
            [ Send (src, Precommit_ack);
              Set_timer (T_decision, default_timeouts.decision_wait) ] )
      | None, R_leader (L_precommit_acks { awaiting })
        when Sset.is_empty awaiting ->
          let p, actions = log_outcome p Commit in
          ({ p with p_role = R_leader (L_deciding Commit) }, actions)
      | None, _ -> (p, []))
  | B_precommitted, _, Recv (src, Precommit_msg) ->
      (* Duplicate (e.g. new leader re-driving, or our ack was lost):
         re-ack so the sender stops waiting on us. *)
      (p, [ Send (src, Precommit_ack) ])
  (* Decisions — also accepted while a prepared/precommit log write is
     still in flight (the stale Log_done is ignored afterwards). *)
  | ( (B_uncertain | B_precommitted | B_logging_prepared
      | B_logging_precommit _),
      _,
      Recv (_, Decision_msg d) ) ->
      log_outcome p d
  | B_logging_outcome d, _, Log_done (L_decision d') when decision_equal d d'
    ->
      let p, actions = finish p d in
      let ack =
        if decision_equal d Abort && p.p_coord_up then
          [ Send (p.p_coordinator, Decision_ack) ]
        else []
      in
      (p, ack @ actions)
  (* Timeout paths. *)
  | ( (B_uncertain | B_precommitted),
      (R_normal | R_follower),
      Timeout (T_decision | T_resend) ) ->
      start_termination p
  (* Leader: state collection. *)
  | _, R_leader (L_collect { awaiting; reports }), Recv (src, State_report st)
    when Sset.mem src awaiting ->
      let awaiting = Sset.remove src awaiting in
      let reports = (src, st) :: reports in
      if Sset.is_empty awaiting then leader_collect_done p ~awaiting ~reports
      else ({ p with p_role = R_leader (L_collect { awaiting; reports }) }, [])
  | _, R_leader (L_collect { awaiting; reports }), Timeout T_state ->
      leader_collect_done p ~awaiting ~reports
  | _, R_leader (L_precommit_acks { awaiting }), Recv (src, Precommit_ack)
    when Sset.mem src awaiting ->
      let awaiting = Sset.remove src awaiting in
      if Sset.is_empty awaiting && p.p_base <> B_uncertain
         && (match p.p_base with B_logging_precommit _ -> false | _ -> true)
      then
        let p, actions = log_outcome p Commit in
        ({ p with p_role = R_leader (L_deciding Commit) }, actions)
      else ({ p with p_role = R_leader (L_precommit_acks { awaiting }) }, [])
  | _, R_leader (L_precommit_acks _), Timeout T_precommit_ack ->
      if (match p.p_base with B_precommitted -> true | _ -> false) then
        let p, actions = log_outcome p Commit in
        ({ p with p_role = R_leader (L_deciding Commit) }, actions)
      else (p, [])
  (* Everyone answers state and decision queries. *)
  | _, _, Recv (src, State_req) ->
      (p, [ Send (src, State_report (part_state p)) ])
  | (B_finished d | B_logging_outcome d), _, Recv (src, Decision_req) ->
      (p, [ Send (src, Decision_msg d) ])
  (* Undecided but holding live protocol state: stay silent.  We can run
     (or already are running) the election ourselves, so "unknown" — the
     cue for the asker to usurp the election — would only cause churn. *)
  | ( (B_uncertain | B_precommitted | B_logging_prepared
      | B_logging_precommit _),
      _,
      Recv (_, Decision_req) ) ->
      (p, [])
  | _, _, Recv (src, Decision_req) -> (p, [ Send (src, Decision_unknown) ])
  (* A presumptive leader that answers "unknown" lost every trace of the
     transaction in a crash and will never start the election we are
     waiting for.  Usurp it: under reliable delivery concurrent usurpers
     collect identical state reports and reach the same outcome, and the
     amnesiac site pledges abort when a [State_req] reaches it, so the
     round terminates. *)
  | ( (B_uncertain | B_precommitted),
      (R_normal | R_follower),
      Recv (src, Decision_unknown) )
    when leader_candidate p = Some src ->
      become_leader p
  | B_finished _, _, Recv (src, Decision_msg _) ->
      (* Our decision ack was lost and the coordinator is resending:
         without this re-ack an abort-wait coordinator resends forever
         and the protocol never quiesces. *)
      (p, [ Send (src, Decision_ack) ])
  | _, _, Peers_reachable up ->
      let up = Sset.inter (Sset.of_list (p.p_self :: up)) p.p_all in
      ({ p with p_up = up; p_coord_up = Sset.mem p.p_coordinator up
                          || not (Sset.mem p.p_coordinator p.p_all) }, [])
  | _, _, (Recv _ | Timeout _ | Log_done _ | Start) -> (p, [])

(* After finishing, a leader broadcasts the decision so followers and
   late-recovering sites converge.  We hook this into [finish] by giving
   the leader's decision distribution in [log_outcome]'s completion: the
   [B_logging_outcome] case above fires [finish]; to distribute, leaders
   wrap it here. *)
let part_step p input =
  let p', actions = part_step p input in
  (* When a leader's own decision record becomes durable, broadcast the
     outcome to the remaining up sites. *)
  match (p.p_role, input) with
  | R_leader (L_deciding d), Log_done (L_decision d')
    when decision_equal d d' ->
      let targets = Sset.remove p'.p_self p'.p_up in
      (p', actions @ send_to targets (Decision_msg d))
  | _ -> (p', actions)

let participant_recovered ~self ~coordinator ~all ~state =
  let base =
    match state with
    | P_uncertain -> B_uncertain
    | P_precommitted -> B_precommitted
    | P_committed -> B_finished Commit
    | P_aborted | P_preaborted -> B_finished Abort
  in
  let p = participant ~self ~coordinator ~all ~vote:true in
  { p with p_base = base }

(* A recovered participant starts its own inquiry on [Start]. *)
let part_step p input =
  match (input, p.p_base, p.p_role) with
  | Start, (B_uncertain | B_precommitted), R_normal ->
      (* Ask around rather than wait for a timeout. *)
      let asks = send_to (peers_up p) Decision_req in
      ( { p with p_role = R_normal },
        asks @ [ Set_timer (T_decision, default_timeouts.decision_wait) ] )
  | _ -> part_step p input

(* ------------------------------------------------------------------ *)
(* Canonical description (explorer state fingerprinting)               *)
(* ------------------------------------------------------------------ *)

let describe_coord c =
  let phase =
    match c.c_phase with
    | C_init -> "init"
    | C_collecting { pending; yes } ->
        Printf.sprintf "collecting{p=%s;y=%s}" (set_str pending) (set_str yes)
    | C_logging_precommit -> "logging-precommit"
    | C_precommit_wait { await } ->
        Printf.sprintf "precommit-wait{a=%s}" (set_str await)
    | C_logging_decision { d; notify; await } ->
        Printf.sprintf "logging-decision{%s;n=%s;a=%s}" (dec_str d)
          (set_str notify) (set_str await)
    | C_abort_wait { await } ->
        Printf.sprintf "abort-wait{a=%s}" (set_str await)
    | C_done d -> Printf.sprintf "done{%s}" (dec_str d)
  in
  Printf.sprintf "3pc-coord:parts=%s:%s" (set_str c.c_participants) phase

let describe_part p =
  let base =
    match p.p_base with
    | B_idle -> "idle"
    | B_logging_prepared -> "logging-prepared"
    | B_uncertain -> "uncertain"
    | B_logging_precommit { ack_to } ->
        Printf.sprintf "logging-precommit{ack=%s}"
          (match ack_to with None -> "-" | Some s -> string_of_int s)
    | B_precommitted -> "precommitted"
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
    | R_leader (L_precommit_acks { awaiting }) ->
        Printf.sprintf "leader-precommit-acks{a=%s}" (set_str awaiting)
    | R_leader (L_deciding d) ->
        Printf.sprintf "leader-deciding{%s}" (dec_str d)
  in
  Printf.sprintf "3pc-part:%d<-%d:all=%s:v=%b:up=%s:cu=%b:%s:%s" p.p_self
    p.p_coordinator (set_str p.p_all) p.p_vote (set_str p.p_up) p.p_coord_up
    base role
