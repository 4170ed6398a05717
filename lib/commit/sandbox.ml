open Rt_types
open Protocol

type outcome = {
  decisions : (Ids.site_id * decision) list;
  agreement : bool;
  all_decided : bool;
  messages : int;
  forced_writes : int;
  lazy_writes : int;
  blocked : bool;
  steps : int;
  timeouts_fired : int;
}

type mrole = Coord | Part

let mrole_rank = function Coord -> 0 | Part -> 1

(* Total order on timer keys so the enabled-timer list is a function of
   the timer set, not of hash-table layout. *)
let timer_key_compare (s1, r1, t1) (s2, r2, t2) =
  let c = Int.compare s1 s2 in
  if c <> 0 then c
  else
    let c = Int.compare (mrole_rank r1) (mrole_rank r2) in
    if c <> 0 then c else timer_compare t1 t2

type event =
  | Deliver of { src : Ids.site_id; dst : Ids.site_id; msg : msg }
  | Log_complete of { site : Ids.site_id; role : mrole; tag : log_tag }
  | Notice_down of { dst : Ids.site_id; down : Ids.site_id }
  | Kick of { site : Ids.site_id; role : mrole }  (* Start for recovery *)

type sim = {
  proto : Commit_protocol.t;
  sites : int;
  votes : bool array;
  rng : Rt_sim.Rng.t option;  (* None = FIFO deterministic *)
  (* rt_lint: allow fingerprint-coverage -- self-contained protocol sandbox with its own crash-sweep harness; never part of the cluster the explorer digests *)
  mutable coord : Erased.t option;  (* lives at site 0 *)
  parts : Erased.t option array;
  mutable pending : event list;  (* in arrival order *)
  timers : (Ids.site_id * mrole * timer, unit) Hashtbl.t;
  durable : (Ids.site_id, log_tag list ref) Hashtbl.t;
  mutable crashed : bool array;
  mutable messages : int;
  mutable forced_writes : int;
  mutable lazy_writes : int;
  mutable blocked : bool;
  mutable timeouts_fired : int;
  mutable decisions_delivered : (Ids.site_id * decision) list;
  forgotten : bool array;  (* read-only participants that released *)
}

let coordinator_site = 0

let all_sites sim = List.init sim.sites (fun i -> i)

let durable_tags sim site =
  match Hashtbl.find_opt sim.durable site with Some r -> !r | None -> []

let mark_durable sim site tag =
  match Hashtbl.find_opt sim.durable site with
  | Some r -> r := tag :: !r
  | None -> Hashtbl.add sim.durable site (ref [ tag ])

(* Route an incoming message to the coordinator or participant machine. *)
let routed_to_coord sim ~dst msg =
  dst = coordinator_site
  &&
  match sim.coord with
  | None -> false
  | Some coord -> (
      match msg with
      | Vote_yes | Vote_no | Vote_read_only | Decision_ack | Precommit_ack
      | Pq_precommit_ack _ | Pq_preabort_ack _ ->
          true
      | Px_p1a _ | Px_p2a _ | Px_p1b _ | Px_p2b _ | Px_nack _ ->
          (* Site 0's acceptor and any (r, 0) ballot leadership live in
             the coordinator machine; participant leaders never use
             ballot site 0.  With the coordinator gone the participant
             machine receives these and ignores them (it owns no
             acceptor at site 0). *)
          true
      | Decision_req ->
          (* A coordinator that knows the outcome (including by
             presumption after recovery) answers inquiries; otherwise the
             local participant does. *)
          Erased.decision coord <> None
      | _ -> false)

let clear_timers_for sim site role =
  (* rt_lint: allow deterministic-iteration -- collects keys to delete; removal is order-insensitive *)
  Hashtbl.fold
    (fun (s, r, t) () acc -> if s = site && r = role then (s, r, t) :: acc else acc)
    sim.timers []
  |> List.iter (fun key -> Hashtbl.remove sim.timers key)

let rec interpret sim ~site ~role actions =
  List.iter
    (fun action ->
      match action with
      | Send (dst, msg) ->
          if dst <> site then sim.messages <- sim.messages + 1;
          if dst >= 0 && dst < sim.sites && not sim.crashed.(dst) then
            sim.pending <- sim.pending @ [ Deliver { src = site; dst; msg } ]
      | Log (tag, `Forced) ->
          sim.forced_writes <- sim.forced_writes + 1;
          sim.pending <- sim.pending @ [ Log_complete { site; role; tag } ]
      | Log (_, `Lazy) -> sim.lazy_writes <- sim.lazy_writes + 1
      | Deliver d ->
          if role = Part then
            sim.decisions_delivered <- (site, d) :: sim.decisions_delivered
      | Set_timer (t, _) -> Hashtbl.replace sim.timers (site, role, t) ()
      | Clear_timer t -> Hashtbl.remove sim.timers (site, role, t)
      | Blocked -> sim.blocked <- true
      | Forget ->
          if role = Part then sim.forgotten.(site) <- true)
    actions

and feed sim ~site ~role input =
  if not sim.crashed.(site) then
    match role with
    | Coord -> (
        match sim.coord with
        | Some m when site = coordinator_site ->
            let m', actions = Erased.step m input in
            sim.coord <- Some m';
            interpret sim ~site ~role actions
        | _ -> ())
    | Part -> (
        match sim.parts.(site) with
        | Some m ->
            let m', actions = Erased.step m input in
            sim.parts.(site) <- Some m';
            interpret sim ~site ~role actions
        | None -> ())

let crash sim site =
  if not sim.crashed.(site) then begin
    sim.crashed.(site) <- true;
    if site = coordinator_site then sim.coord <- None;
    sim.parts.(site) <- None;
    clear_timers_for sim site Coord;
    clear_timers_for sim site Part;
    (* Queued work for the site dies with it. *)
    sim.pending <-
      List.filter
        (function
          | Deliver { dst; _ } -> dst <> site
          | Log_complete { site = s; _ } -> s <> site
          | Notice_down { dst; _ } -> dst <> site
          | Kick { site = s; _ } -> s <> site)
        sim.pending;
    (* Failure detectors at the other sites notice. *)
    for other = 0 to sim.sites - 1 do
      if other <> site && not sim.crashed.(other) then
        sim.pending <- sim.pending @ [ Notice_down { dst = other; down = site } ]
    done
  end

let recover sim site =
  if sim.crashed.(site) then begin
    sim.crashed.(site) <- false;
    let tags = durable_tags sim site in
    let decided =
      List.find_map
        (function L_decision d -> Some d | _ -> None)
        tags
    in
    let all = all_sites sim in
    (match decided with
    | Some d -> sim.parts.(site) <- Some (Erased.finished d)
    | None ->
        let has tag = List.mem tag tags in
        if has L_precommit || has L_preabort || has L_prepared then begin
          let state =
            if has L_precommit then P_precommitted
            else if has L_preabort then P_preaborted
            else P_uncertain
          in
          sim.parts.(site) <-
            Some
              (Commit_protocol.recovered_participant sim.proto
                 ~participants:all ~coordinator:coordinator_site ~self:site
                 ~state)
        end
        else
          (* Never prepared: the site may abort unilaterally. *)
          sim.parts.(site) <- Some (Erased.finished Abort));
    sim.pending <- sim.pending @ [ Kick { site; role = Part } ];
    (* A recovered coordinator resumes from its log, where the protocol
       has one to resume. *)
    if site = coordinator_site then
      let logged =
        match decided with
        | Some d -> `Decision d
        | None -> if List.mem L_collecting tags then `Collecting else `Nothing
      in
      match
        Commit_protocol.recovered_coordinator sim.proto ~participants:all
          ~self:site ~logged
      with
      | Some m ->
          sim.coord <- Some m;
          sim.pending <- sim.pending @ [ Kick { site; role = Coord } ]
      | None -> ()
  end

let process_event sim event =
  match event with
  | Deliver { src; dst; msg } ->
      let role = if routed_to_coord sim ~dst msg then Coord else Part in
      feed sim ~site:dst ~role (Recv (src, msg))
  | Log_complete { site; role; tag } ->
      mark_durable sim site tag;
      feed sim ~site ~role (Log_done tag)
  | Notice_down { dst; down } ->
      feed sim ~site:dst ~role:Coord (Peer_down down);
      feed sim ~site:dst ~role:Part (Peer_down down)
  | Kick { site; role } -> feed sim ~site ~role Start

let pick_event sim =
  match sim.pending with
  | [] -> None
  | events -> (
      match sim.rng with
      | None ->
          (* FIFO *)
          let ev = List.hd events in
          sim.pending <- List.tl events;
          Some ev
      | Some rng ->
          let n = List.length events in
          let idx = Rt_sim.Rng.int rng n in
          let ev = List.nth events idx in
          sim.pending <- List.filteri (fun i _ -> i <> idx) events;
          Some ev)

let fire_some_timer sim =
  let enabled =
    Hashtbl.fold (fun k () acc -> k :: acc) sim.timers []
    |> List.sort timer_key_compare
  in
  match enabled with
  | [] -> false
  | _ ->
      let site, role, t =
        match sim.rng with
        | None -> List.hd enabled
        | Some rng ->
            List.nth enabled (Rt_sim.Rng.int rng (List.length enabled))
      in
      Hashtbl.remove sim.timers (site, role, t);
      sim.timeouts_fired <- sim.timeouts_fired + 1;
      feed sim ~site ~role (Timeout t);
      true

let live_parts_decided sim =
  let ok = ref true in
  for s = 0 to sim.sites - 1 do
    if not sim.crashed.(s) && not sim.forgotten.(s) then
      match sim.parts.(s) with
      | Some m -> if Erased.decision m = None then ok := false
      | None -> ()
  done;
  !ok

let run ?seed ?(crashes = []) ?(recoveries = []) ?(max_steps = 10_000)
    ?read_only ~proto ~sites ~votes () =
  if Array.length votes <> sites then
    invalid_arg "Sandbox.run: votes array size mismatch";
  let read_only =
    match read_only with
    | Some a when Array.length a = sites -> a
    | Some _ -> invalid_arg "Sandbox.run: read_only array size mismatch"
    | None -> Array.make sites false
  in
  let rng = Option.map (fun s -> Rt_sim.Rng.create ~seed:s) seed in
  let participants = List.init sites (fun i -> i) in
  let sim =
    {
      proto;
      sites;
      votes;
      rng;
      coord =
        Some
          (Commit_protocol.coordinator proto ~participants
             ~self:coordinator_site);
      parts =
        Array.init sites (fun i ->
            Some
              (Commit_protocol.participant proto ~participants
                 ~coordinator:coordinator_site ~self:i ~vote:votes.(i)
                 ~read_only:read_only.(i)));
      pending = [];
      timers = Hashtbl.create 16;
      durable = Hashtbl.create 16;
      crashed = Array.make sites false;
      messages = 0;
      forced_writes = 0;
      lazy_writes = 0;
      blocked = false;
      timeouts_fired = 0;
      decisions_delivered = [];
      forgotten = Array.make sites false;
    }
  in
  feed sim ~site:coordinator_site ~role:Coord Start;
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    (* Scheduled crash/recovery points trigger on the step counter. *)
    List.iter (fun (s, k) -> if k = !steps then crash sim s) crashes;
    List.iter (fun (s, k) -> if k = !steps then recover sim s) recoveries;
    match pick_event sim with
    | Some ev ->
        incr steps;
        process_event sim ev
    | None ->
        if live_parts_decided sim then continue := false
        else if fire_some_timer sim then incr steps
        else continue := false
  done;
  let decisions =
    List.sort_uniq
      (fun (s1, d1) (s2, d2) ->
        let c = Int.compare s1 s2 in
        if c <> 0 then c else decision_compare d1 d2)
      sim.decisions_delivered
  in
  let agreement =
    match decisions with
    | [] -> true
    | (_, d0) :: rest -> List.for_all (fun (_, d) -> decision_equal d d0) rest
  in
  {
    decisions;
    agreement;
    all_decided = live_parts_decided sim;
    messages = sim.messages;
    forced_writes = sim.forced_writes;
    lazy_writes = sim.lazy_writes;
    blocked = sim.blocked;
    steps = !steps;
    timeouts_fired = sim.timeouts_fired;
  }

let run_fifo ~proto ~sites ~votes () = run ~proto ~sites ~votes ()
