open Rt_types
open Protocol

type variant = Presumed_nothing | Presumed_abort | Presumed_commit

let variant_name = function
  | Presumed_nothing -> "2PC-PrN"
  | Presumed_abort -> "2PC-PrA"
  | Presumed_commit -> "2PC-PrC"

let presumption = function
  | Presumed_nothing | Presumed_abort -> Abort
  | Presumed_commit -> Commit

(* Which decisions the coordinator requires acknowledgements for. *)
let needs_acks variant (d : decision) =
  match (variant, d) with
  | Presumed_nothing, _ -> true
  | Presumed_abort, Commit -> true
  | Presumed_abort, Abort -> false
  | Presumed_commit, Abort -> true
  | Presumed_commit, Commit -> false

(* Is the coordinator's decision record forced?  Aborts under presumed
   abort need no record at all (we write a lazy one for the archive). *)
let coord_decision_force variant (d : decision) =
  match (variant, d) with
  | Presumed_abort, Abort -> `Lazy
  | _ -> `Forced

(* Participant-side decision-record discipline. *)
let part_decision_force variant (d : decision) =
  match (variant, d) with
  | Presumed_nothing, _ -> `Forced
  | Presumed_abort, Commit -> `Forced
  | Presumed_abort, Abort -> `Lazy
  | Presumed_commit, Commit -> `Lazy
  | Presumed_commit, Abort -> `Forced

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

type coord_phase =
  | C_init
  | C_logging_collecting
  | C_collecting of { pending : Sset.t; yes : Sset.t }
  | C_logging_decision of { d : decision; yes : Sset.t; pending : Sset.t }
  | C_decided of { d : decision; await_acks : Sset.t }
  | C_done of decision

type coord = {
  c_variant : variant;
  c_participants : Sset.t;
  c_phase : coord_phase;
}

let coordinator ~variant ~participants =
  if participants = [] then invalid_arg "Two_pc.coordinator: no participants";
  {
    c_variant = variant;
    c_participants = Sset.of_list participants;
    c_phase = C_init;
  }

let coord_decision c =
  match c.c_phase with
  | C_logging_decision { d; _ } | C_decided { d; _ } | C_done d -> Some d
  | C_init | C_logging_collecting | C_collecting _ -> None

let coord_done c = match c.c_phase with C_done _ -> true | _ -> false

let start_voting c =
  let phase = C_collecting { pending = c.c_participants; yes = Sset.empty } in
  ( { c with c_phase = phase },
    send_to c.c_participants Vote_req
    @ [ Set_timer (T_votes, default_timeouts.vote_collect) ] )

(* Move to a decision: write the decision record with the variant's
   forcing discipline.  [yes] tracks who voted yes (these must be notified
   and, when the variant requires, acknowledge); [pending] are sites whose
   vote never arrived — they are notified too in case their Yes was in
   flight, but no ack is expected of them. *)
let rec begin_decision c ~yes ~pending d =
  let force = coord_decision_force c.c_variant d in
  let actions = [ Clear_timer T_votes; Log (L_decision d, force) ] in
  match force with
  | `Forced ->
      ({ c with c_phase = C_logging_decision { d; yes; pending } }, actions)
  | `Lazy ->
      (* No durable wait: proceed straight to distribution. *)
      let c = { c with c_phase = C_logging_decision { d; yes; pending } } in
      let c, more = distribute c ~d ~yes ~pending in
      (c, actions @ more)

and distribute c ~d ~yes ~pending =
  (* Decisions concern yes-voters only: read-only participants have
     already released and forgotten. *)
  let recipients =
    match d with Commit -> yes | Abort -> Sset.union yes pending
  in
  let sends = send_to recipients (Decision_msg d) in
  let ackers = (match d with Commit -> yes | Abort -> yes) in
  if needs_acks c.c_variant d && not (Sset.is_empty ackers) then
    ( { c with c_phase = C_decided { d; await_acks = ackers } },
      sends
      @ [ Set_timer (T_resend, default_timeouts.resend_every); Deliver d ] )
  else
    ( { c with c_phase = C_done d },
      sends @ [ Log (L_end, `Lazy); Deliver d ] )

let coord_step c input =
  match (c.c_phase, input) with
  | C_init, Start -> (
      match c.c_variant with
      | Presumed_commit ->
          ( { c with c_phase = C_logging_collecting },
            [ Log (L_collecting, `Forced) ] )
      | Presumed_nothing | Presumed_abort -> start_voting c)
  | C_logging_collecting, Log_done L_collecting -> start_voting c
  | C_collecting { pending; yes }, Recv (src, Vote_yes) ->
      let pending = Sset.remove src pending in
      let yes = Sset.add src yes in
      if Sset.is_empty pending then begin_decision c ~yes ~pending Commit
      else ({ c with c_phase = C_collecting { pending; yes } }, [])
  | C_collecting { pending; yes }, Recv (src, Vote_read_only) ->
      let pending = Sset.remove src pending in
      if Sset.is_empty pending then
        if Sset.is_empty yes then
          (* Everyone was read-only: nothing to decide or log. *)
          ({ c with c_phase = C_done Commit },
           [ Clear_timer T_votes; Deliver Commit ])
        else begin_decision c ~yes ~pending Commit
      else ({ c with c_phase = C_collecting { pending; yes } }, [])
  | C_collecting { pending; yes }, Recv (src, Vote_no) ->
      begin_decision c ~yes:(Sset.remove src yes)
        ~pending:(Sset.remove src pending) Abort
  | C_collecting { pending; yes }, Timeout T_votes ->
      begin_decision c ~yes ~pending Abort
  | C_collecting { pending; yes }, Peer_down p when Sset.mem p pending ->
      begin_decision c ~yes ~pending:(Sset.remove p pending) Abort
  | C_logging_decision { d; yes; pending }, Log_done (L_decision d')
    when decision_equal d d' ->
      distribute c ~d ~yes ~pending
  | C_decided { d; await_acks }, Recv (src, Decision_ack) ->
      let await_acks = Sset.remove src await_acks in
      if Sset.is_empty await_acks then
        ( { c with c_phase = C_done d },
          [ Clear_timer T_resend; Log (L_end, `Lazy) ] )
      else ({ c with c_phase = C_decided { d; await_acks } }, [])
  | C_decided { d; await_acks }, Timeout T_resend ->
      ( c,
        send_to await_acks (Decision_msg d)
        @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )
  | (C_decided { d; _ } | C_done d), Recv (src, Decision_req) ->
      (c, [ Send (src, Decision_msg d) ])
  | C_logging_decision { d; _ }, Recv (src, Decision_req) ->
      (* Decision made but not yet stable; answering early is safe for
         commit only once durable, so tell the asker we are undecided. *)
      ignore d;
      (c, [ Send (src, Decision_unknown) ])
  | (C_init | C_logging_collecting | C_collecting _), Recv (src, Decision_req)
    ->
      (c, [ Send (src, Decision_unknown) ])
  (* Stale/duplicate traffic is ignored. *)
  | _, (Recv _ | Timeout _ | Log_done _ | Peer_down _ | Peers_reachable _ | Start) -> (c, [])

let coordinator_recovered ~variant ~participants ~logged =
  let c = coordinator ~variant ~participants in
  match logged with
  | `Decision (d : decision) ->
      if needs_acks variant d then
        (* Must re-distribute until everyone acknowledges. *)
        { c with c_phase = C_decided { d; await_acks = c.c_participants } }
      else { c with c_phase = C_done d }
  | `Collecting ->
      (* Presumed commit: votes were being collected but no decision was
         logged — the transaction must abort, with acknowledgements. *)
      { c with
        c_phase = C_logging_decision
            { d = Abort; yes = c.c_participants; pending = Sset.empty } }
  | `Nothing ->
      (* The presumption answers any future inquiry. *)
      { c with c_phase = C_done (presumption variant) }

(* Kick a recovered coordinator: re-send pending decisions or restart the
   abort logging. *)
let coord_step c input =
  match (c.c_phase, input) with
  | C_decided { d; await_acks }, Start ->
      ( c,
        send_to await_acks (Decision_msg d)
        @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )
  | C_logging_decision { d; _ }, Start -> (c, [ Log (L_decision d, `Forced) ])
  | _ -> coord_step c input

(* ------------------------------------------------------------------ *)
(* Participant                                                         *)
(* ------------------------------------------------------------------ *)

type part_phase =
  | P_idle
  | P_logging_prepared
  | P_wait_decision of { blocked : bool }
  | P_logging_outcome of decision
  | P_finished of decision
  | P_forgotten
      (** Voted read-only and released; knows nothing about the outcome. *)

type part = {
  p_variant : variant;
  p_self : Ids.site_id;
  p_coordinator : Ids.site_id;
  p_peers : Ids.site_id list;
  p_vote : bool;
  p_read_only : bool;
  p_phase : part_phase;
}

let participant ?(read_only = false) ~variant ~self ~coordinator ~peers ~vote
    () =
  {
    p_variant = variant;
    p_self = self;
    p_coordinator = coordinator;
    p_peers = List.filter (fun p -> p <> self) peers;
    p_vote = vote;
    p_read_only = read_only;
    p_phase = P_idle;
  }

let part_decision p =
  match p.p_phase with
  | P_logging_outcome d | P_finished d -> Some d
  | P_idle | P_logging_prepared | P_wait_decision _ | P_forgotten -> None

let part_state p =
  match p.p_phase with
  | P_idle | P_logging_prepared -> P_uncertain
  | P_wait_decision _ | P_forgotten -> P_uncertain
  | P_logging_outcome d | P_finished d -> (
      match d with Commit -> P_committed | Abort -> P_aborted)

let part_blocked p =
  match p.p_phase with P_wait_decision { blocked } -> blocked | _ -> false

let finish p d ~ack =
  let acks = if ack then [ Send (p.p_coordinator, Decision_ack) ] else [] in
  ({ p with p_phase = P_finished d }, acks @ [ Deliver d ])

let receive_decision p d =
  let ack = needs_acks p.p_variant d in
  match part_decision_force p.p_variant d with
  | `Forced ->
      ( { p with p_phase = P_logging_outcome d },
        [ Clear_timer T_decision; Clear_timer T_resend;
          Log (L_decision d, `Forced) ] )
  | `Lazy ->
      let p, actions = finish p d ~ack in
      ( p,
        [ Clear_timer T_decision; Clear_timer T_resend;
          Log (L_decision d, `Lazy) ]
        @ actions )

let ask_around p =
  (* Cooperative termination: ask the coordinator and every peer (the
     coordinator may itself appear in the peer list; ask it once). *)
  Send (p.p_coordinator, Decision_req)
  :: List.filter_map
       (fun peer ->
         if peer = p.p_coordinator then None
         else Some (Send (peer, Decision_req)))
       p.p_peers

let part_step p input =
  match (p.p_phase, input) with
  | P_idle, Recv (_, Vote_req) ->
      if p.p_vote && p.p_read_only then
        (* Read-only optimization: vote, release, drop out of phase 2. *)
        ( { p with p_phase = P_forgotten },
          [ Send (p.p_coordinator, Vote_read_only); Forget ] )
      else if p.p_vote then
        ({ p with p_phase = P_logging_prepared }, [ Log (L_prepared, `Forced) ])
      else
        (* A No vote lets the participant abort unilaterally; the
           coordinator presumes nothing further from us. *)
        let p, actions = finish p Abort ~ack:false in
        (p, (Send (p.p_coordinator, Vote_no) :: Log (L_decision Abort, `Lazy)
             :: actions))
  | P_idle, Recv (_, Decision_msg d) ->
      (* A decision can reach us before any vote request does — a
         recovered coordinator redistributes its logged decision to every
         participant, including ones whose vote request died with it.
         The coordinator is authoritative: adopt the outcome (and ack per
         the variant) instead of dropping it, or its resends never
         stop. *)
      receive_decision p d
  | P_logging_prepared, Log_done L_prepared ->
      ( { p with p_phase = P_wait_decision { blocked = false } },
        [ Send (p.p_coordinator, Vote_yes);
          Set_timer (T_decision, default_timeouts.decision_wait) ] )
  | (P_wait_decision _ | P_logging_prepared), Recv (_, Decision_msg d) ->
      receive_decision p d
  | P_wait_decision _, Timeout T_decision ->
      ( { p with p_phase = P_wait_decision { blocked = true } },
        ask_around p
        @ [ Set_timer (T_resend, default_timeouts.resend_every); Blocked ] )
  | P_wait_decision { blocked }, Timeout T_resend ->
      ( { p with p_phase = P_wait_decision { blocked } },
        ask_around p @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )
  | P_wait_decision _, Recv (_, Decision_unknown) -> (p, [])
  | P_wait_decision _, Recv (src, Decision_req) ->
      (* A peer is also uncertain; we cannot help. *)
      (p, [ Send (src, Decision_unknown) ])
  | P_logging_outcome d, Log_done (L_decision d') when decision_equal d d' ->
      finish p d ~ack:(needs_acks p.p_variant d)
  | P_finished d, Recv (src, Decision_req) -> (p, [ Send (src, Decision_msg d) ])
  | P_forgotten, Recv (src, Decision_req) ->
      (p, [ Send (src, Decision_unknown) ])
  | (P_idle | P_logging_prepared), Recv (src, Decision_req) ->
      (* Asked before we have anything to say. *)
      (p, [ Send (src, Decision_unknown) ])
  | P_finished d, Recv (_, Decision_msg d') when decision_equal d d' ->
      (* Duplicate decision: the coordinator missed our ack; re-ack. *)
      if needs_acks p.p_variant d then
        (p, [ Send (p.p_coordinator, Decision_ack) ])
      else (p, [])
  | P_forgotten, Recv (_, Decision_msg d) ->
      (* Voted read-only and released: nothing to apply, but an
         ack-collecting coordinator cannot know that — acknowledge so it
         stops resending. *)
      if needs_acks p.p_variant d then
        (p, [ Send (p.p_coordinator, Decision_ack) ])
      else (p, [])
  | _, (Recv _ | Timeout _ | Log_done _ | Peer_down _ | Peers_reachable _ | Start) -> (p, [])

let participant_recovered ~variant ~self ~coordinator ~peers =
  let p =
    participant ~variant ~self ~coordinator ~peers ~vote:true ()
  in
  { p with p_phase = P_wait_decision { blocked = false } }

(* A recovered participant immediately asks around on [Start]. *)
let part_step p input =
  match (p.p_phase, input) with
  | P_wait_decision { blocked }, Start ->
      ( { p with p_phase = P_wait_decision { blocked } },
        ask_around p @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )
  | _ -> part_step p input

(* ------------------------------------------------------------------ *)
(* Canonical description (explorer state fingerprinting)               *)
(* ------------------------------------------------------------------ *)

let describe_coord c =
  let phase =
    match c.c_phase with
    | C_init -> "init"
    | C_logging_collecting -> "logging-collecting"
    | C_collecting { pending; yes } ->
        Printf.sprintf "collecting{p=%s;y=%s}" (set_str pending) (set_str yes)
    | C_logging_decision { d; yes; pending } ->
        Printf.sprintf "logging-decision{%s;y=%s;p=%s}" (dec_str d)
          (set_str yes) (set_str pending)
    | C_decided { d; await_acks } ->
        Printf.sprintf "decided{%s;a=%s}" (dec_str d) (set_str await_acks)
    | C_done d -> Printf.sprintf "done{%s}" (dec_str d)
  in
  Printf.sprintf "2pc-coord:%s:parts=%s:%s" (variant_name c.c_variant)
    (set_str c.c_participants) phase

let describe_part p =
  let phase =
    match p.p_phase with
    | P_idle -> "idle"
    | P_logging_prepared -> "logging-prepared"
    | P_wait_decision { blocked } ->
        Printf.sprintf "wait-decision{b=%b}" blocked
    | P_logging_outcome d -> Printf.sprintf "logging-outcome{%s}" (dec_str d)
    | P_finished d -> Printf.sprintf "finished{%s}" (dec_str d)
    | P_forgotten -> "forgotten"
  in
  Printf.sprintf "2pc-part:%s:%d<-%d:peers=%s:v=%b:ro=%b:%s"
    (variant_name p.p_variant) p.p_self p.p_coordinator
    (String.concat ","
       (List.map string_of_int (List.sort Int.compare p.p_peers)))
    p.p_vote p.p_read_only phase
