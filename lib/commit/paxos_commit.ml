open Rt_types
open Protocol

(* Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"): one
   Paxos consensus instance per participant vote, all instances sharing a
   single ballot space led by the transaction coordinator at ballot 0.
   2F+1 acceptors with F+1 quorums make the commit/abort outcome survive
   any F failures.  F >= 1 here: with F = 0 the coordinator would be the
   sole acceptor, which is two-phase commit with presumed nothing, and
   [Commit_protocol] runs the [Two_pc] machines instead.  So no quorum is
   ever a single acceptor, and no leader decides in the step that opens
   its ballot. *)

type config = {
  all : Ids.site_id list;  (* participants, ascending *)
  coordinator : Ids.site_id;
  f : int;
  acceptors : Ids.site_id list;  (* 2f+1: coordinator first, rest ascending *)
}

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let config ~all ~coordinator ?f () =
  (match all with
  | [] -> invalid_arg "Paxos_commit.config: no participants"
  | _ :: _ -> ());
  let all = List.sort_uniq Int.compare all in
  let others = List.filter (fun s -> s <> coordinator) all in
  let max_f = List.length others / 2 in
  let f = match f with None -> max_f | Some f -> f in
  if f < 0 then invalid_arg "Paxos_commit.config: negative F";
  if f = 0 then invalid_arg "Paxos_commit.config: F = 0 is 2PC-PrN";
  if f > max_f then
    invalid_arg "Paxos_commit.config: not enough sites for 2F+1 acceptors";
  let acceptors = coordinator :: take (2 * f) others in
  { all; coordinator; f; acceptors }

let quorum cfg = cfg.f + 1
let ballot0 cfg : epoch = (0, cfg.coordinator)

(* ------------------------------------------------------------------ *)
(* Acceptor (embedded in the coordinator and in acceptor participants) *)
(* ------------------------------------------------------------------ *)

type acceptor = {
  ax_promised : epoch;  (* highest ballot promised (maxBal) *)
  ax_accepted : (Ids.site_id * (epoch * decision)) list;
      (* per instance, the last accepted (ballot, value); ascending rm *)
}

let acc_init cfg = { ax_promised = ballot0 cfg; ax_accepted = [] }
let acc_triples a = List.map (fun (rm, (b, v)) -> (rm, b, v)) a.ax_accepted
let acc_accepted = acc_triples

let acc_p1a a ~ballot =
  if epoch_compare ballot a.ax_promised >= 0 then
    ({ a with ax_promised = ballot }, `P1b (acc_triples a))
  else (a, `Nack a.ax_promised)

(* Accept (ballot, v) for instance [rm] iff the ballot is not stale.  At
   an equal ballot a previously accepted value is never overwritten — the
   duplicate is re-acknowledged with the original value (the ballot-safety
   property the qcheck suite pins). *)
let acc_p2a a ~ballot ~rm ~v =
  if epoch_compare ballot a.ax_promised < 0 then (a, `Nack a.ax_promised)
  else
    let a = { a with ax_promised = ballot } in
    match List.assoc_opt rm a.ax_accepted with
    | Some (b', v') when epoch_compare b' ballot = 0 -> (a, `P2b v')
    | _ ->
        let accepted =
          (rm, (ballot, v)) :: List.remove_assoc rm a.ax_accepted
          |> List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2)
        in
        ({ a with ax_accepted = accepted }, `P2b v)

(* Every acceptor answers a phase-1a or phase-2a message here: [Ok] is the
   reply to a ballot it joined (phase-2b goes to the ballot's leader),
   [Error] the nack of a stale one.  What joining a ballot means for the
   site's own leadership is up to its role. *)
let serve_p1a a ~src b =
  match acc_p1a a ~ballot:b with
  | a, `P1b triples -> (a, Ok (Send (src, Px_p1b (b, triples))))
  | a, `Nack promised -> (a, Error (Send (src, Px_nack promised)))

let serve_p2a a ~src (b, rm, v) =
  match acc_p2a a ~ballot:b ~rm ~v with
  | a, `P2b v' -> (a, Ok (Send (snd b, Px_p2b (b, rm, v'))))
  | a, `Nack promised -> (a, Error (Send (src, Px_nack promised)))

(* ------------------------------------------------------------------ *)
(* Vote tallies and phase-1 merges                                     *)
(* ------------------------------------------------------------------ *)

(* Per instance: which acceptors acknowledged Commit / Abort at the
   tallying leader's current ballot. *)
type tally = (Ids.site_id * (Sset.t * Sset.t)) list

(* One entry shared by every fresh instance (sets are immutable):
   [Protocol.Sset.empty] is not a compile-time constant here, so a
   literal pair in [tally_init] would be allocated per instance. *)
let no_acks = (Sset.empty, Sset.empty)

let tally_init cfg : tally = List.map (fun rm -> (rm, no_acks)) cfg.all

let tally_add (t : tally) ~rm ~acc ~v : tally =
  List.map
    (fun (r, (cs, ab)) ->
      if r = rm then
        match (v : decision) with
        | Commit -> (r, (Sset.add acc cs, ab))
        | Abort -> (r, (cs, Sset.add acc ab))
      else (r, (cs, ab)))
    t

let tally_commit_chosen cfg (t : tally) =
  List.filter_map
    (fun (rm, (cs, _)) ->
      if Sset.cardinal cs >= quorum cfg then Some rm else None)
    t
  |> Sset.of_list

(* The outcome a tally has chosen: Abort as soon as one instance has an
   Abort quorum, Commit once every instance has a Commit quorum. *)
let tally_outcome cfg (t : tally) =
  if List.exists (fun (_, (_, ab)) -> Sset.cardinal ab >= quorum cfg) t then
    Some Abort
  else if List.for_all (fun (_, (cs, _)) -> Sset.cardinal cs >= quorum cfg) t
  then Some Commit
  else None

(* Highest-ballot accepted value per instance across phase-1 reports. *)
let merge_found found triples =
  List.fold_left
    (fun acc (rm, b, v) ->
      match List.assoc_opt rm acc with
      | Some (b', _) when epoch_compare b' b >= 0 -> acc
      | _ -> (rm, (b, v)) :: List.remove_assoc rm acc)
    found triples
  |> List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2)

(* A recovery leader proposes the highest accepted value for each
   instance, and Abort for free instances. *)
let proposal_of_found cfg found =
  List.map
    (fun rm ->
      match List.assoc_opt rm found with
      | Some (_, v) -> (rm, v)
      | None -> (rm, Abort))
    cfg.all

(* ------------------------------------------------------------------ *)
(* Ballot leadership (a coordinator's recovery ballot or an elected    *)
(* participant), over the leader's own acceptor if it has one          *)
(* ------------------------------------------------------------------ *)

type lead =
  | Electing of {
      heard : Sset.t;
      found : (Ids.site_id * (epoch * decision)) list;
    }
  | Proposing of { proposal : (Ids.site_id * decision) list; tally : tally }

let other_acceptors cfg self = List.filter (fun a -> a <> self) cfg.acceptors

(* Phase 1: promise [ballot] at our own acceptor, then ask the others. *)
let lead_open cfg ~self own ~ballot =
  let own, lead =
    match own with
    | None -> (None, Electing { heard = Sset.empty; found = [] })
    | Some a ->
        let a, rep = acc_p1a a ~ballot in
        let found =
          match rep with `P1b triples -> merge_found [] triples | `Nack _ -> []
        in
        (Some a, Electing { heard = Sset.singleton self; found })
  in
  ( own,
    lead,
    List.map (fun a -> Send (a, Px_p1a ballot)) (other_acceptors cfg self)
    @ [ Set_timer (T_state, default_timeouts.decision_wait) ] )

(* Phase 2: propose the found values, accept them at our own acceptor,
   then ask the others. *)
let lead_propose cfg ~self own ~ballot found =
  let proposal = proposal_of_found cfg found in
  let others = other_acceptors cfg self in
  let sends =
    List.concat_map
      (fun (rm, v) ->
        List.map (fun a -> Send (a, Px_p2a (ballot, rm, v))) others)
      proposal
  in
  let own, tally =
    match own with
    | None -> (None, tally_init cfg)
    | Some a ->
        let a, tally =
          List.fold_left
            (fun (a, tally) (rm, v) ->
              match acc_p2a a ~ballot ~rm ~v with
              | a, `P2b v' -> (a, tally_add tally ~rm ~acc:self ~v:v')
              | a, `Nack _ -> (a, tally))
            (a, tally_init cfg) proposal
        in
        (Some a, tally)
  in
  ( own,
    Proposing { proposal; tally },
    sends @ [ Set_timer (T_precommit_ack, default_timeouts.decision_wait) ] )

(* A phase-1b or phase-2b message to the leader of [ballot]: [`Counted]
   it toward a quorum, [`Proposed] phase 2 on a phase-1 quorum,
   [`Chosen] the outcome of the phase-2 tally, or [`Ignored] it (another
   ballot or phase, a non-acceptor, or a repeat). *)
let lead_reply cfg ~self own ~ballot lead src msg =
  match (lead, msg) with
  | Electing { heard; found }, Px_p1b (b, triples)
    when epoch_compare b ballot = 0
         && List.mem src cfg.acceptors
         && not (Sset.mem src heard) ->
      let heard = Sset.add src heard in
      let found = merge_found found triples in
      if Sset.cardinal heard >= quorum cfg then
        `Proposed (lead_propose cfg ~self own ~ballot found)
      else `Counted (Electing { heard; found })
  | Proposing { proposal; tally }, Px_p2b (b, rm, v)
    when epoch_compare b ballot = 0 && List.mem src cfg.acceptors -> (
      let tally = tally_add tally ~rm ~acc:src ~v in
      match tally_outcome cfg tally with
      | Some d -> `Chosen (d, tally)
      | None -> `Counted (Proposing { proposal; tally }))
  | _ -> `Ignored

(* ------------------------------------------------------------------ *)
(* Coordinator (ballot-0 leader, with embedded acceptor)               *)
(* ------------------------------------------------------------------ *)

type coord_phase =
  | C_init
  | C_collecting of { tally : tally }
  | C_leading of { ballot : epoch; lead : lead; blocked : bool }
      (* our recovery ballot *)
  | C_deposed  (* a higher ballot exists: poll for its outcome *)
  | C_logging_decision of { d : decision; notify : Sset.t; ackers : Sset.t }
  | C_decided of { d : decision; await_acks : Sset.t }
  | C_done of decision

type coord = {
  c_cfg : config;
  c_self : Ids.site_id;
  c_acc : acceptor;
  c_refused : Sset.t;  (* participants whose own ballot-0 vote was Abort *)
  c_phase : coord_phase;
}

let c_parts c = Sset.of_list c.c_cfg.all

let coordinator ~config ~self =
  if self <> config.coordinator then
    invalid_arg "Paxos_commit.coordinator: self is not the configured leader";
  {
    c_cfg = config;
    c_self = self;
    c_acc = acc_init config;
    c_refused = Sset.empty;
    c_phase = C_init;
  }

let coord_decision c =
  match c.c_phase with
  | C_logging_decision { d; _ } | C_decided { d; _ } | C_done d -> Some d
  | _ -> None

let coord_blocked c =
  match c.c_phase with
  | C_leading { blocked; _ } -> blocked
  | _ -> false

(* Move to the decision: forced log, then distribute.  Refusers already
   aborted locally and are not notified of an abort. *)
let coord_decide c ~tally d =
  let chosen = tally_commit_chosen c.c_cfg tally in
  let notify =
    match (d : decision) with
    | Commit -> c_parts c
    | Abort -> Sset.diff (c_parts c) c.c_refused
  in
  let ackers =
    match (d : decision) with Commit -> c_parts c | Abort -> chosen
  in
  ( { c with c_phase = C_logging_decision { d; notify; ackers } },
    [ Clear_timer T_votes; Clear_timer T_state; Clear_timer T_precommit_ack;
      Log (L_decision d, `Forced) ] )

(* Ballot 0 counted one more vote. *)
let coord_collected c tally =
  match tally_outcome c.c_cfg tally with
  | Some d -> coord_decide c ~tally d
  | None -> ({ c with c_phase = C_collecting { tally } }, [])

(* Enter a phase of our recovery ballot, keeping what our acceptor
   promised or accepted there. *)
let coord_lead c ~ballot (acc, lead, actions) =
  ( { c with
      c_acc = Option.value acc ~default:c.c_acc;
      c_phase = C_leading { ballot; lead; blocked = false } },
    actions )

(* Usurp our own stalled ballot: run phase 1 at the next round. *)
let coord_open c =
  let ballot = (fst c.c_acc.ax_promised + 1, c.c_self) in
  coord_lead c ~ballot
    (lead_open c.c_cfg ~self:c.c_self (Some c.c_acc) ~ballot)

(* A phase of our recovery ballot timed out: resend to the acceptors that
   have not answered, and report Blocked once. *)
let coord_stalled c ~ballot ~lead ~blocked timer sends =
  ( { c with c_phase = C_leading { ballot; lead; blocked = true } },
    sends
    @ [ Set_timer (timer, default_timeouts.decision_wait) ]
    @ (if blocked then [] else [ Blocked ]) )

(* Yield to a higher-ballot leader: keep polling for the outcome so the
   origin's client still learns it even if the rival's broadcast to us is
   lost. *)
let coord_yield c =
  ( { c with c_phase = C_deposed },
    [ Clear_timer T_votes; Clear_timer T_state; Clear_timer T_precommit_ack ]
    @ send_to (c_parts c) Decision_req
    @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )

let coord_our_ballot c =
  match c.c_phase with
  | C_leading { ballot; _ } -> ballot
  | _ -> ballot0 c.c_cfg

(* Our acceptor served a rival leader: step aside ([coord_yield]) if the
   ballot it joined beats ours. *)
let coord_served c b (acc, reply) =
  let c = { c with c_acc = acc } in
  match reply with
  | Ok send when epoch_compare b (coord_our_ballot c) > 0 ->
      let c, actions = coord_yield c in
      (c, send :: actions)
  | Ok send | Error send -> (c, [ send ])

let coord_step c input =
  match (c.c_phase, input) with
  | C_init, Start ->
      ( { c with c_phase = C_collecting { tally = tally_init c.c_cfg } },
        send_to (c_parts c) Vote_req
        @ [ Set_timer (T_votes, default_timeouts.vote_collect) ] )
  (* Ballot 0: participants drive their own instances.  Their phase-2a
     reaches us directly (we are an acceptor); other acceptors forward
     phase-2b acknowledgements. *)
  | ( C_collecting { tally },
      Recv (_, (Px_p2a (b, rm, Abort) | Px_p2b (b, rm, Abort))) )
    when epoch_compare b (ballot0 c.c_cfg) = 0 ->
      (* The participant refused: it already aborted locally, exactly like
         a 2PC No-voter — decide without waiting for a quorum (no Commit
         can ever enter its instance). *)
      coord_decide { c with c_refused = Sset.add rm c.c_refused } ~tally Abort
  | C_collecting { tally }, Recv (_, Px_p2a (b, rm, Commit))
    when epoch_compare b (ballot0 c.c_cfg) = 0 -> (
      match acc_p2a c.c_acc ~ballot:b ~rm ~v:Commit with
      | acc, `P2b v ->
          coord_collected { c with c_acc = acc }
            (tally_add tally ~rm ~acc:c.c_self ~v)
      | _, `Nack _ ->
          (* A recovery ballot already fenced ballot 0; our own timeout
             will terminate the transaction. *)
          (c, []))
  | C_collecting { tally }, Recv (src, Px_p2b (b, rm, Commit))
    when epoch_compare b (ballot0 c.c_cfg) = 0 ->
      coord_collected c (tally_add tally ~rm ~acc:src ~v:Commit)
  | C_collecting _, Timeout T_votes -> coord_open c
  | C_collecting { tally }, Peer_down p
    when Sset.mem p (c_parts c)
         && (not (Sset.mem p (tally_commit_chosen c.c_cfg tally)))
         && not (Sset.mem p c.c_refused) ->
      (* A participant with an undecided instance died: terminate now
         rather than wait out the vote timer (2PC's pending-peer rule).
         Its instance is free, so the election chooses Abort for it. *)
      coord_open c
  (* Our recovery ballot. *)
  | C_leading { ballot; lead; blocked }, Recv (src, (Px_p1b _ | Px_p2b _ as m))
    -> (
      match
        lead_reply c.c_cfg ~self:c.c_self (Some c.c_acc) ~ballot lead src m
      with
      | `Counted lead ->
          ({ c with c_phase = C_leading { ballot; lead; blocked } }, [])
      | `Proposed next -> coord_lead c ~ballot next
      | `Chosen (d, tally) -> coord_decide c ~tally d
      | `Ignored -> (c, []))
  | C_leading { ballot; lead = Electing { heard; _ } as lead; blocked },
    Timeout T_state ->
      coord_stalled c ~ballot ~lead ~blocked T_state
        (List.filter_map
           (fun a ->
             if a = c.c_self || Sset.mem a heard then None
             else Some (Send (a, Px_p1a ballot)))
           c.c_cfg.acceptors)
  | C_leading { ballot; lead = Proposing { proposal; tally } as lead; blocked },
    Timeout T_precommit_ack ->
      coord_stalled c ~ballot ~lead ~blocked T_precommit_ack
        (List.concat_map
           (fun (rm, v) ->
             let cs, ab = List.assoc rm tally in
             List.filter_map
               (fun a ->
                 if a = c.c_self || Sset.mem a cs || Sset.mem a ab then None
                 else Some (Send (a, Px_p2a (ballot, rm, v))))
               c.c_cfg.acceptors)
           proposal)
  (* Rival leaders: serve the embedded acceptor and step aside when their
     ballot beats ours.  (Ballot-0 phase-2a is matched above.) *)
  | (C_collecting _ | C_leading _ | C_deposed), Recv (src, Px_p1a b) ->
      coord_served c b (serve_p1a c.c_acc ~src b)
  | (C_collecting _ | C_leading _ | C_deposed), Recv (src, Px_p2a (b, rm, v)) ->
      coord_served c b (serve_p2a c.c_acc ~src (b, rm, v))
  | C_leading { ballot; _ }, Recv (_, Px_nack b) when epoch_compare b ballot > 0
    ->
      coord_yield c
  (* Decision plumbing (2PC-shaped). *)
  | C_logging_decision { d; notify; ackers }, Log_done (L_decision d')
    when decision_equal d d' ->
      let sends = send_to notify (Decision_msg d) in
      if Sset.is_empty ackers then
        ( { c with c_phase = C_done d },
          sends @ [ Log (L_end, `Lazy); Deliver d ] )
      else
        ( { c with c_phase = C_decided { d; await_acks = ackers } },
          sends
          @ [ Set_timer (T_resend, default_timeouts.resend_every); Deliver d ] )
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
  | C_deposed, Timeout T_resend ->
      ( c,
        send_to (c_parts c) Decision_req
        @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )
  | C_deposed, Recv (_, Decision_msg d) ->
      ( { c with c_phase = C_done d },
        [ Clear_timer T_resend; Deliver d; Log (L_decision d, `Lazy) ] )
  (* A recovery leader out-decided us while we were still on ballot 0 or
     mid-election: adopt the outcome (our pre-decision traffic is ballot-
     fenced, so without adoption we would resend forever). *)
  | (C_init | C_collecting _ | C_leading _), Recv (_, Decision_msg d) ->
      ( { c with c_phase = C_done d },
        [ Clear_timer T_votes; Clear_timer T_state; Clear_timer T_precommit_ack;
          Clear_timer T_resend; Deliver d; Log (L_decision d, `Lazy) ] )
  | (C_decided { d; _ } | C_done d), Recv (src, Decision_req) ->
      (c, [ Send (src, Decision_msg d) ])
  | (C_decided _ | C_done _), Recv (_, Px_p2a (b, _, _))
    when epoch_compare b (ballot0 c.c_cfg) = 0 ->
      (* A straggling ballot-0 vote after the decision: ignore it, like
         2PC ignores a late Vote_yes (the voter learns the outcome from
         the normal distribution). *)
      (c, [])
  | (C_decided { d; _ } | C_done d), Recv (src, (Px_p1a _ | Px_p2a _)) ->
      (* Help a stale recovery leader terminate. *)
      (c, [ Send (src, Decision_msg d) ])
  (* An undecided coordinator ignores [Decision_req]: its own timeouts
     will terminate it, and "unknown" is the participants' cue to usurp —
     reserved for genuinely amnesiac sites. *)
  | _, (Recv _ | Timeout _ | Log_done _ | Peer_down _ | Peers_reachable _
       | Start) ->
      (c, [])

(* Rebuild from a logged decision, which is redistributed until
   acknowledged.  Without one there is nothing to rebuild: a recovery
   leader may have decided meanwhile, so the site must answer
   [Decision_unknown] and let the participants' election terminate the
   transaction. *)
let coordinator_recovered ~config ~self ~decision:d =
  let c = coordinator ~config ~self in
  { c with c_phase = C_decided { d; await_acks = c_parts c } }

(* Kick a recovered coordinator: re-distribute the pending decision. *)
let coord_step c input =
  match (c.c_phase, input) with
  | C_decided { d; await_acks }, Start ->
      ( c,
        send_to await_acks (Decision_msg d)
        @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )
  | _ -> coord_step c input

(* ------------------------------------------------------------------ *)
(* Participant (resource manager, optionally an acceptor)              *)
(* ------------------------------------------------------------------ *)

type base =
  | B_idle
  | B_logging_prepared
  | B_uncertain
  | B_logging_outcome of { d : decision; ack : bool }
  | B_finished of decision

type role = R_normal | R_follower | R_leader of lead  (* at [x_ballot] *)

type part = {
  x_cfg : config;
  x_self : Ids.site_id;
  x_vote : bool;
  x_up : Sset.t;  (* participants currently reachable, self included *)
  x_ballot : epoch;  (* highest ballot seen; ours while leading *)
  x_base : base;
  x_role : role;
  x_blocked : bool;
  x_acc : acceptor option;  (* Some iff an acceptor (volatile: lost on crash) *)
}

let participant ~config ~self ~vote =
  {
    x_cfg = config;
    x_self = self;
    x_vote = vote;
    x_up = Sset.of_list config.all;
    x_ballot = ballot0 config;
    x_base = B_idle;
    x_role = R_normal;
    x_blocked = false;
    x_acc =
      (if List.mem self config.acceptors && self <> config.coordinator then
         Some (acc_init config)
       else None);
  }

let part_decision p =
  match p.x_base with
  | B_logging_outcome { d; _ } | B_finished d -> Some d
  | _ -> None

let part_state p =
  match p.x_base with
  | B_idle | B_logging_prepared | B_uncertain -> P_uncertain
  | B_logging_outcome { d = Commit; _ } | B_finished Commit -> P_committed
  | B_logging_outcome { d = Abort; _ } | B_finished Abort -> P_aborted

let part_blocked p = p.x_blocked

let part_reachable_update p ~up =
  let up = Sset.add p.x_self (Sset.of_list up) in
  { p with x_up = Sset.inter up (Sset.of_list p.x_cfg.all) }

(* Eligible election leaders: reachable participants other than the
   coordinator's own site (its leadership runs in the coordinator
   machine; keeping the two separated keeps ballot identities unique). *)
let candidates p = Sset.remove p.x_cfg.coordinator p.x_up

let log_outcome p d ~ack =
  match p.x_base with
  | B_logging_outcome _ | B_finished _ -> (p, [])
  | B_idle | B_logging_prepared | B_uncertain ->
      ( { p with x_base = B_logging_outcome { d; ack }; x_blocked = false },
        [ Clear_timer T_decision; Clear_timer T_resend; Clear_timer T_state;
          Clear_timer T_precommit_ack; Log (L_decision d, `Forced) ] )

let leader_blocked p =
  ( { p with x_role = R_follower; x_blocked = true },
    [ Set_timer (T_resend, default_timeouts.resend_every) ]
    @ (if p.x_blocked then [] else [ Blocked ]) )

let part_open p =
  let ballot = (fst p.x_ballot + 1, p.x_self) in
  let x_acc, lead, actions = lead_open p.x_cfg ~self:p.x_self p.x_acc ~ballot in
  ({ p with x_ballot = ballot; x_acc; x_role = R_leader lead }, actions)

let start_termination p =
  match Sset.min_elt_opt (candidates p) with
  | Some l when l = p.x_self -> part_open p
  | Some _ | None ->
      ( { p with x_role = R_follower },
        send_to
          (Sset.add p.x_cfg.coordinator (Sset.remove p.x_self p.x_up))
          Decision_req
        @ [ Set_timer (T_resend, default_timeouts.resend_every) ] )

(* Our acceptor served a ballot: one it joined at or above ours dethrones
   any local leadership (mirroring quorum commit's epoch rule). *)
let part_served p src b (acc, reply) =
  let p = { p with x_acc = Some acc } in
  match reply with
  | Error nack -> (p, [ nack ])
  | Ok send -> (
      let p =
        if epoch_compare b p.x_ballot > 0 then { p with x_ballot = b } else p
      in
      match p.x_role with
      | R_leader _ when src <> p.x_self && epoch_compare b p.x_ballot >= 0 ->
          ( { p with x_role = R_follower },
            [ send; Clear_timer T_state; Clear_timer T_precommit_ack;
              Set_timer (T_resend, default_timeouts.resend_every) ] )
      | _ -> (p, [ send ]))

(* Broadcast our own vote as ballot-0 phase 2a.  If we are ourselves an
   acceptor, accept it locally and acknowledge straight to ballot 0's
   leader (the coordinator); otherwise the coordinator-site acceptor is
   included in the fan-out. *)
let cast_vote p (v : decision) =
  let b0 = ballot0 p.x_cfg in
  let targets =
    match p.x_acc with
    | Some _ -> other_acceptors p.x_cfg p.x_self
    | None -> p.x_cfg.acceptors
  in
  let sends = List.map (fun a -> Send (a, Px_p2a (b0, p.x_self, v))) targets in
  match p.x_acc with
  | None -> (p, sends)
  | Some a -> (
      match acc_p2a a ~ballot:b0 ~rm:p.x_self ~v with
      | a, `P2b v' ->
          ( { p with x_acc = Some a },
            sends @ [ Send (p.x_cfg.coordinator, Px_p2b (b0, p.x_self, v')) ] )
      | a, `Nack _ -> ({ p with x_acc = Some a }, sends))

let part_step p input =
  match (p.x_base, p.x_role, input) with
  | base, role, Peer_down s -> (
      let p = { p with x_up = Sset.remove s p.x_up } in
      match (base, role) with
      | B_uncertain, R_normal when s = p.x_cfg.coordinator ->
          start_termination p
      | _ -> (p, []))
  | _, _, Peers_reachable up -> (part_reachable_update p ~up, [])
  (* Voting. *)
  | B_idle, R_normal, Recv (_, Vote_req) ->
      if p.x_vote then
        ({ p with x_base = B_logging_prepared }, [ Log (L_prepared, `Forced) ])
      else
        (* Refuse: our instance gets Abort and we abort unilaterally —
           no recovery leader can ever choose Commit for it. *)
        let p, sends = cast_vote p Abort in
        ( { p with x_base = B_finished Abort },
          sends @ [ Log (L_decision Abort, `Lazy); Deliver Abort ] )
  | B_logging_prepared, R_normal, Log_done L_prepared ->
      let p, sends = cast_vote p Commit in
      ( { p with x_base = B_uncertain },
        sends @ [ Set_timer (T_decision, default_timeouts.decision_wait) ] )
  (* The outcome. *)
  | (B_idle | B_logging_prepared | B_uncertain), _, Recv (_, Decision_msg d)
    ->
      log_outcome p d ~ack:true
  | B_logging_outcome { d; ack }, _, Log_done (L_decision d')
    when decision_equal d d' ->
      (* Acks always go to the origin coordinator — it is the only
         distributor that awaits them (a recovered one resends until the
         full roster answers); leaders broadcast without collecting. *)
      let ack =
        if ack then [ Send (p.x_cfg.coordinator, Decision_ack) ] else []
      in
      let broadcast =
        match p.x_role with
        | R_leader _ ->
            send_to
              (Sset.add p.x_cfg.coordinator (Sset.remove p.x_self p.x_up))
              (Decision_msg d)
        | R_normal | R_follower -> []
      in
      ( { p with x_base = B_finished d; x_role = R_normal },
        ack @ broadcast @ [ Deliver d ] )
  | B_finished d, _, Recv (_, Decision_msg d') when decision_equal d d' ->
      (* The coordinator missed our ack and is resending: re-ack. *)
      (p, [ Send (p.x_cfg.coordinator, Decision_ack) ])
  (* Uncertainty timeouts. *)
  | B_uncertain, (R_normal | R_follower), Timeout (T_decision | T_resend) ->
      start_termination p
  (* Leader: phase 1 and phase 2 bookkeeping. *)
  | _, R_leader lead, Recv (src, (Px_p1b _ | Px_p2b _ as m)) -> (
      match
        lead_reply p.x_cfg ~self:p.x_self p.x_acc ~ballot:p.x_ballot lead src m
      with
      | `Counted lead -> ({ p with x_role = R_leader lead }, [])
      | `Proposed (x_acc, lead, actions) ->
          ({ p with x_acc; x_role = R_leader lead }, actions)
      | `Chosen (d, _) -> log_outcome p d ~ack:false
      | `Ignored -> (p, []))
  | _, R_leader _, Timeout (T_state | T_precommit_ack) -> leader_blocked p
  | _, R_leader _, Recv (_, Px_nack b) when epoch_compare b p.x_ballot > 0 ->
      ( { p with x_ballot = b; x_role = R_follower },
        [ Clear_timer T_state; Clear_timer T_precommit_ack;
          Set_timer (T_resend, default_timeouts.resend_every) ] )
  (* Acceptor duties are independent of the RM's own progress: serving a
     ballot is always safe, and keeps replies deterministic no matter
     when straggling traffic arrives.  (Acceptor-less participants stay
     silent — leaders only ever address acceptors.) *)
  | _, _, Recv (src, Px_p1a b) -> (
      match p.x_acc with
      | Some a -> part_served p src b (serve_p1a a ~src b)
      | None -> (p, []))
  | _, _, Recv (src, Px_p2a (b, rm, v)) -> (
      match p.x_acc with
      | Some a -> part_served p src b (serve_p2a a ~src (b, rm, v))
      | None -> (p, []))
  (* Termination inquiries. *)
  | B_finished d, _, Recv (src, Decision_req) ->
      (p, [ Send (src, Decision_msg d) ])
  | B_idle, _, Recv (src, Decision_req) ->
      (p, [ Send (src, Decision_unknown) ])
  (* An amnesiac presumptive leader cannot terminate the transaction for
     us — usurp it (quorum commit's hardened rule). *)
  | B_uncertain, (R_normal | R_follower), Recv (src, Decision_unknown)
    when Sset.min_elt_opt (candidates p) = Some src ->
      part_open p
  (* A participant holding live protocol state ignores [Decision_req]: it
     can run (or is running) the election itself, and "unknown" would
     only cause usurpation churn. *)
  | _, _, (Recv _ | Timeout _ | Log_done _ | Start) -> (p, [])

let participant_recovered ~config ~self ~state =
  let base =
    match state with
    | P_uncertain | P_precommitted | P_preaborted -> B_uncertain
    | P_committed -> B_finished Commit
    | P_aborted -> B_finished Abort
  in
  let p = participant ~config ~self ~vote:true in
  (* Acceptor state was volatile: a recovered acceptor must abstain
     forever (it may have promised or accepted before the crash), which
     is indistinguishable from staying down — 2F+1 acceptors tolerate F
     such losses. *)
  { p with x_base = base; x_acc = None }

(* A recovered participant starts termination on [Start]. *)
let part_step p input =
  match (input, p.x_base, p.x_role) with
  | Start, B_uncertain, R_normal -> start_termination p
  | _ -> part_step p input

(* ------------------------------------------------------------------ *)
(* Canonical description (explorer state fingerprinting)               *)
(* ------------------------------------------------------------------ *)

let cfg_str c =
  Printf.sprintf "all=%s;co=%d;f=%d;acc=%s"
    (String.concat "," (List.map string_of_int c.all))
    c.coordinator c.f
    (String.concat "," (List.map string_of_int c.acceptors))

let acc_str a =
  Printf.sprintf "pr=%s;acc=%s" (epoch_str a.ax_promised)
    (String.concat ","
       (List.map
          (fun (rm, (b, v)) ->
            Printf.sprintf "%d@%s=%s" rm (epoch_str b) (dec_str v))
          a.ax_accepted))

let tally_str (t : tally) =
  String.concat ","
    (List.map
       (fun (rm, (cs, ab)) ->
         Printf.sprintf "%d:c=%s;a=%s" rm (set_str cs) (set_str ab))
       t)

let found_str found =
  String.concat ","
    (List.map
       (fun (rm, (b, v)) ->
         Printf.sprintf "%d@%s=%s" rm (epoch_str b) (dec_str v))
       found)

let proposal_str prop =
  String.concat ","
    (List.map (fun (rm, v) -> Printf.sprintf "%d=%s" rm (dec_str v)) prop)

(* A leadership phase's name and fields, shared by both roles' text. *)
let lead_str = function
  | Electing { heard; found } ->
      ("electing", Printf.sprintf "h=%s;f=%s" (set_str heard) (found_str found))
  | Proposing { proposal; tally } ->
      ( "proposing",
        Printf.sprintf "p=%s;t=%s" (proposal_str proposal) (tally_str tally) )

let describe_coord c =
  let phase =
    match c.c_phase with
    | C_init -> "init"
    | C_collecting { tally } ->
        Printf.sprintf "collecting{%s}" (tally_str tally)
    | C_leading { ballot; lead; blocked } ->
        let name, body = lead_str lead in
        Printf.sprintf "%s{b=%s;%s;bl=%b}" name (epoch_str ballot) body blocked
    | C_deposed -> "deposed"
    | C_logging_decision { d; notify; ackers } ->
        Printf.sprintf "logging-decision{%s;n=%s;a=%s}" (dec_str d)
          (set_str notify) (set_str ackers)
    | C_decided { d; await_acks } ->
        Printf.sprintf "decided{%s;a=%s}" (dec_str d) (set_str await_acks)
    | C_done d -> Printf.sprintf "done{%s}" (dec_str d)
  in
  Printf.sprintf "px-coord:%s:self=%d:acc=%s:ref=%s:%s" (cfg_str c.c_cfg)
    c.c_self (acc_str c.c_acc) (set_str c.c_refused) phase

let describe_part p =
  let base =
    match p.x_base with
    | B_idle -> "idle"
    | B_logging_prepared -> "logging-prepared"
    | B_uncertain -> "uncertain"
    | B_logging_outcome { d; ack } ->
        Printf.sprintf "logging-outcome{%s;ack=%b}" (dec_str d) ack
    | B_finished d -> Printf.sprintf "finished{%s}" (dec_str d)
  in
  let role =
    match p.x_role with
    | R_normal -> "normal"
    | R_follower -> "follower"
    | R_leader lead ->
        let name, body = lead_str lead in
        Printf.sprintf "leader-%s{%s}" name body
  in
  Printf.sprintf "px-part:%s:%d:v=%b:up=%s:b=%s:bl=%b:acc=%s:%s:%s"
    (cfg_str p.x_cfg) p.x_self p.x_vote (set_str p.x_up)
    (epoch_str p.x_ballot) p.x_blocked
    (match p.x_acc with None -> "-" | Some a -> acc_str a)
    base role
