open Rt_types

type t =
  | Rowa
  | Available_copies
  | Quorum of Rt_quorum.Votes.t
  | Primary_copy of Ids.site_id

let name = function
  | Rowa -> "ROWA"
  | Available_copies -> "ROWA-A"
  | Quorum v ->
      Printf.sprintf "Quorum(r=%d,w=%d)" (Rt_quorum.Votes.read_quorum v)
        (Rt_quorum.Votes.write_quorum v)
  | Primary_copy p -> Printf.sprintf "Primary(%d)" p

let rowa = Rowa
let available_copies = Available_copies
let majority ~sites = Quorum (Rt_quorum.Votes.majority ~sites)

let quorum ~read_quorum ~write_quorum ~sites =
  Quorum
    (Rt_quorum.Votes.make ~votes:(Array.make sites 1) ~read_quorum
       ~write_quorum)

let primary p = Primary_copy p

let of_name ~sites = function
  | "rowa" -> Some rowa
  | "rowa-a" | "available-copies" -> Some available_copies
  | "quorum" | "majority" -> Some (majority ~sites)
  | "primary" -> Some (primary 0)
  | _ -> None

let all_up ~up ~replicas = List.filter up replicas

(* Prefer reading locally; fall back to the lowest up replica. *)
let one_up ~self ~up ~replicas =
  if List.mem self replicas && up self then Some [ self ]
  else
    match all_up ~up ~replicas with [] -> None | s :: _ -> Some [ s ]

(* Restrict a vote assignment to a shard's replica set.  When the set is
   every site the configured thresholds apply unchanged; a proper subset
   gets one-vote majorities over the subset (the configured global
   thresholds are meaningless against a fraction of the votes). *)
let votes_for v ~replicas =
  let n = Rt_quorum.Votes.sites v in
  if List.length replicas = n then Some v
  else
    let member = Array.make n false in
    let in_range = List.for_all (fun s -> s >= 0 && s < n) replicas in
    if not in_range then None
    else begin
      List.iter (fun s -> member.(s) <- true) replicas;
      let votes = Array.init n (fun i -> if member.(i) then 1 else 0) in
      let q = (List.length replicas / 2) + 1 in
      Some (Rt_quorum.Votes.make ~votes ~read_quorum:q ~write_quorum:q)
    end

(* Put [self] first among quorum candidates so local copies are preferred
   (Votes.min_*_set picks greedily by votes then id, which is already
   deterministic; we only need to bias toward self for the common
   one-vote-per-site case). *)
let quorum_set pick v ~self ~up ~replicas =
  match votes_for v ~replicas with
  | None -> None
  | Some v -> (
      (* Try to force self into the set by asking with self marked as the
         only "cheap" site: compute the set normally; if self is up and not
         included while some other site is, swap one equal-vote site out. *)
      match pick v ~up with
      | None -> None
      | Some set ->
          if
            (not (List.mem self replicas))
            || (not (up self))
            || List.mem self set
          then Some set
          else
            let votes = Rt_quorum.Votes.votes v in
            let self_votes = votes.(self) in
            let swappable =
              List.find_opt (fun s -> votes.(s) = self_votes) (List.rev set)
            in
            (match swappable with
            | Some s ->
                Some
                  (List.sort Int.compare (self :: List.filter (( <> ) s) set))
            | None -> Some set))

(* Primary-copy succession: if the configured primary does not replicate
   this shard (or is down), the lowest up replica acts as primary.  (Like
   all primary-succession schemes without consensus, a detector
   disagreement can briefly yield two acting primaries; quorum consensus
   is the partition-safe alternative.) *)
let acting_primary p ~up ~replicas =
  if List.mem p replicas && up p then Some p else List.find_opt up replicas

let read_plan t ~self ~up ~replicas =
  match t with
  | Rowa | Available_copies -> one_up ~self ~up ~replicas
  | Quorum v ->
      quorum_set
        (fun v ~up -> Rt_quorum.Votes.min_read_set v ~up)
        v ~self ~up ~replicas
  | Primary_copy p ->
      Option.map (fun a -> [ a ]) (acting_primary p ~up ~replicas)

let write_plan t ~self ~up ~replicas =
  match t with
  | Rowa ->
      let alive = all_up ~up ~replicas in
      if List.length alive = List.length replicas then Some alive else None
  | Available_copies -> (
      match all_up ~up ~replicas with [] -> None | alive -> Some alive)
  | Quorum v ->
      quorum_set
        (fun v ~up -> Rt_quorum.Votes.min_write_set v ~up)
        v ~self ~up ~replicas
  | Primary_copy p -> (
      (* Synchronous primary-backup: the acting primary plus every up
         backup of the shard. *)
      match acting_primary p ~up ~replicas with
      | Some _ -> Some (all_up ~up ~replicas)
      | None -> None)

let read_needs_version_resolution = function
  | Quorum _ -> true
  | Rowa | Available_copies | Primary_copy _ -> false

let needs_catchup_on_recovery = function
  | Available_copies | Rowa | Primary_copy _ -> true
  | Quorum _ -> false

let trusts_failure_detector = function
  | Available_copies | Primary_copy _ -> true
  | Rowa | Quorum _ -> false
