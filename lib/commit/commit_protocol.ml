type t =
  | Two_phase of Two_pc.variant
  | Three_phase
  | Quorum_commit of { commit_quorum : int option; abort_quorum : int option }
  | Paxos_commit of { f : int option }

let name = function
  | Two_phase v -> Two_pc.variant_name v
  | Three_phase -> "3PC"
  | Quorum_commit _ -> "QC"
  | Paxos_commit _ -> "Paxos"

let all =
  List.map
    (fun t -> (name t, t))
    [
      Two_phase Two_pc.Presumed_nothing;
      Two_phase Two_pc.Presumed_abort;
      Two_phase Two_pc.Presumed_commit;
      Three_phase;
      Quorum_commit { commit_quorum = None; abort_quorum = None };
      Paxos_commit { f = None };
    ]

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_map
    (fun (n, t) -> if String.lowercase_ascii n = s then Some t else None)
    all

let validate t ~sites =
  match t with
  | Quorum_commit { commit_quorum; abort_quorum } ->
      let majority = (sites / 2) + 1 in
      let vc = Option.value commit_quorum ~default:majority in
      let va = Option.value abort_quorum ~default:majority in
      if vc < 1 || va < 1 then
        invalid_arg "Config: commit/abort quorums must be positive";
      if vc + va <= sites then
        invalid_arg "Config: commit/abort quorums must overlap"
  | Paxos_commit { f = Some f } ->
      (* 2f+1 acceptors are drawn from the origin site plus the other
         participants; any two (f+1)-quorums of them intersect. *)
      if f < 0 then invalid_arg "Config: paxos F must be non-negative";
      if (2 * f) + 1 > sites then
        invalid_arg
          "Config: paxos F needs 2F+1 acceptor sites (F <= (sites-1)/2)"
  | Paxos_commit { f = None } | Two_phase _ | Three_phase -> ()

(* ------------------------------------------------------------------ *)
(* Resolver                                                            *)
(* ------------------------------------------------------------------ *)

let quorums ~commit_quorum ~abort_quorum ~participants:n =
  let majority = (n / 2) + 1 in
  let clamp q = max 1 (min n (Option.value q ~default:majority)) in
  let vc = clamp commit_quorum and va = clamp abort_quorum in
  if vc + va > n then (vc, va) else (majority, majority)

let paxos_f f ~participants ~coordinator =
  let others =
    List.fold_left
      (fun n s -> if s = coordinator then n else n + 1)
      0 participants
  in
  let max_f = others / 2 in
  match f with None -> max_f | Some f -> max 0 (min max_f f)

let qc_config ~commit_quorum ~abort_quorum ~participants =
  let commit_quorum, abort_quorum =
    quorums ~commit_quorum ~abort_quorum
      ~participants:(List.length participants)
  in
  Quorum_commit.config ~all:participants ~commit_quorum ~abort_quorum ()

(* With an effective F of 0 the origin is the sole acceptor, and Paxos
   Commit is two-phase commit with presumed nothing (Gray & Lamport):
   [None] says the transaction runs the 2PC-PrN machines. *)
let paxos_config f ~participants ~coordinator =
  match paxos_f f ~participants ~coordinator with
  | 0 -> None
  | f -> Some (Paxos_commit.config ~all:participants ~coordinator ~f ())

let prn = Two_phase Two_pc.Presumed_nothing

let label t ~sites =
  let participants = List.init sites Fun.id in
  match t with
  | Quorum_commit { commit_quorum; abort_quorum } ->
      let vc, va = quorums ~commit_quorum ~abort_quorum ~participants:sites in
      Printf.sprintf "QC(%d,%d)" vc va
  | Paxos_commit { f } ->
      Printf.sprintf "Paxos(F=%d)" (paxos_f f ~participants ~coordinator:0)
  | Two_phase _ | Three_phase -> name t

(* ------------------------------------------------------------------ *)
(* Factory                                                             *)
(* ------------------------------------------------------------------ *)

(* Each machine type, erased once.  2PC and 3PC coordinators never
   report themselves blocked. *)
let machine ~step ~decision ?(blocked = fun _ -> false) describe =
  { Erased.step; decision; blocked; describe }

let two_pc_coord =
  machine ~step:Two_pc.coord_step ~decision:Two_pc.coord_decision
    Two_pc.describe_coord

let two_pc_part =
  machine ~step:Two_pc.part_step ~decision:Two_pc.part_decision
    ~blocked:Two_pc.part_blocked Two_pc.describe_part

let three_pc_coord =
  machine ~step:Three_pc.coord_step ~decision:Three_pc.coord_decision
    Three_pc.describe_coord

let three_pc_part =
  machine ~step:Three_pc.part_step ~decision:Three_pc.part_decision
    ~blocked:Three_pc.part_blocked Three_pc.describe_part

let qc_coord =
  machine ~step:Quorum_commit.coord_step
    ~decision:Quorum_commit.coord_decision
    ~blocked:Quorum_commit.coord_blocked Quorum_commit.describe_coord

let qc_part =
  machine ~step:Quorum_commit.part_step ~decision:Quorum_commit.part_decision
    ~blocked:Quorum_commit.part_blocked Quorum_commit.describe_part

let paxos_coord =
  machine ~step:Paxos_commit.coord_step ~decision:Paxos_commit.coord_decision
    ~blocked:Paxos_commit.coord_blocked Paxos_commit.describe_coord

let paxos_part =
  machine ~step:Paxos_commit.part_step ~decision:Paxos_commit.part_decision
    ~blocked:Paxos_commit.part_blocked Paxos_commit.describe_part

let rec coordinator t ~participants ~self =
  match t with
  | Two_phase variant ->
      Erased.make two_pc_coord (Two_pc.coordinator ~variant ~participants)
  | Three_phase ->
      Erased.make three_pc_coord (Three_pc.coordinator ~participants)
  | Quorum_commit { commit_quorum; abort_quorum } ->
      let config = qc_config ~commit_quorum ~abort_quorum ~participants in
      Erased.make qc_coord (Quorum_commit.coordinator ~config ~self)
  | Paxos_commit { f } -> (
      match paxos_config f ~participants ~coordinator:self with
      | None -> coordinator prn ~participants ~self
      | Some config ->
          Erased.make paxos_coord (Paxos_commit.coordinator ~config ~self))

let rec participant t ~participants ~coordinator ~self ~vote ~read_only =
  match t with
  | Two_phase variant ->
      Erased.make two_pc_part
        (Two_pc.participant ~read_only ~variant ~self ~coordinator
           ~peers:participants ~vote ())
  | Three_phase ->
      Erased.make three_pc_part
        (Three_pc.participant ~self ~coordinator ~all:participants ~vote)
  | Quorum_commit { commit_quorum; abort_quorum } ->
      let config = qc_config ~commit_quorum ~abort_quorum ~participants in
      Erased.make qc_part
        (Quorum_commit.participant ~config ~self ~coordinator ~vote)
  | Paxos_commit { f } -> (
      match paxos_config f ~participants ~coordinator with
      | None ->
          (* Paxos Commit has no read-only vote. *)
          participant prn ~participants ~coordinator ~self ~vote
            ~read_only:false
      | Some config ->
          (* A participant co-located with the coordinator owns no
             acceptor: the coordinator machine holds the origin's, so
             ballots stay unique per machine. *)
          Erased.make paxos_part (Paxos_commit.participant ~config ~self ~vote))

let rec recovered_participant t ~participants ~coordinator ~self ~state =
  match t with
  | Two_phase variant ->
      Erased.make two_pc_part
        (Two_pc.participant_recovered ~variant ~self ~coordinator
           ~peers:participants)
  | Three_phase ->
      Erased.make three_pc_part
        (Three_pc.participant_recovered ~self ~coordinator ~all:participants
           ~state)
  | Quorum_commit { commit_quorum; abort_quorum } ->
      let config = qc_config ~commit_quorum ~abort_quorum ~participants in
      Erased.make qc_part
        (Quorum_commit.participant_recovered ~config ~self ~coordinator ~state)
  | Paxos_commit { f } -> (
      match paxos_config f ~participants ~coordinator with
      | None -> recovered_participant prn ~participants ~coordinator ~self ~state
      | Some config ->
          Erased.make paxos_part
            (Paxos_commit.participant_recovered ~config ~self ~state))

let rec recovered_coordinator t ~participants ~self ~logged =
  match t with
  | Two_phase variant ->
      Some
        (Erased.make two_pc_coord
           (Two_pc.coordinator_recovered ~variant ~participants ~logged))
  | Paxos_commit { f } -> (
      match (paxos_config f ~participants ~coordinator:self, logged) with
      | None, _ -> recovered_coordinator prn ~participants ~self ~logged
      | Some config, `Decision decision ->
          Some
            (Erased.make paxos_coord
               (Paxos_commit.coordinator_recovered ~config ~self ~decision))
      | Some _, (`Collecting | `Nothing) -> None)
  | Three_phase | Quorum_commit _ -> None

let rec presumption t ~participants ~coordinator =
  match t with
  | Two_phase variant -> Some (Two_pc.presumption variant)
  | Paxos_commit { f } -> (
      (* With F > 0 a recovery leader may have decided from the surviving
         acceptors, so the origin must stay uncertain. *)
      match paxos_config f ~participants ~coordinator with
      | None -> presumption prn ~participants ~coordinator
      | Some _ -> None)
  | Three_phase | Quorum_commit _ -> None
