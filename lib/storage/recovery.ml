open Rt_types

type doubt_state = D_prepared | D_precommitted | D_preaborted

type in_doubt = {
  txn : Ids.Txn_id.t;
  state : doubt_state;
  participants : Ids.site_id list;
  writes : (string * string * Kv.version) list;
}

type outcome = {
  committed : Ids.Txn_id.t list;
  aborted : Ids.Txn_id.t list;
  in_doubt : in_doubt list;
  collecting : Ids.Txn_id.t list;
  redone : int;
  scanned : int;
}

type status =
  | Active
  | Was_prepared
  | Was_precommitted
  | Was_preaborted
  | Won
  | Lost

let recover kv log =
  let status : status Ids.Txn_map.t = Ids.Txn_map.create 64 in
  let participants : Ids.site_id list Ids.Txn_map.t = Ids.Txn_map.create 16 in
  let collecting : unit Ids.Txn_map.t = Ids.Txn_map.create 16 in
  let get txn = Option.value (Ids.Txn_map.find_opt status txn) ~default:Active in
  let scanned = ref 0 in
  (* Analysis pass: classify every transaction mentioned in the log. *)
  List.iter
    (fun record ->
      incr scanned;
      match record with
      | Log_record.Update { txn; _ } ->
          if not (Ids.Txn_map.mem status txn) then
            Ids.Txn_map.replace status txn Active
      | Prepared { txn; participants = parts } -> (
          Ids.Txn_map.replace participants txn parts;
          match get txn with
          | Active -> Ids.Txn_map.replace status txn Was_prepared
          | _ -> ())
      | Precommit txn -> (
          match get txn with
          | Active | Was_prepared | Was_preaborted ->
              Ids.Txn_map.replace status txn Was_precommitted
          | _ -> ())
      | Preabort txn -> (
          match get txn with
          | Active | Was_prepared | Was_precommitted ->
              Ids.Txn_map.replace status txn Was_preaborted
          | _ -> ())
      | Collecting txn -> Ids.Txn_map.replace collecting txn ()
      | Commit txn -> Ids.Txn_map.replace status txn Won
      | Abort txn -> Ids.Txn_map.replace status txn Lost
      | End txn -> Ids.Txn_map.remove collecting txn)
    log;
  (* Redo pass: winners only, in log order. *)
  let redone = ref 0 in
  List.iter
    (fun record ->
      match record with
      | Log_record.Update { txn; key; value; version; _ } when get txn = Won ->
          Kv.set kv ~key ~value ~version;
          incr redone
      | _ -> ())
    log;
  let classify want =
    Ids.Txn_map.fold
      (fun txn st acc -> if want st then txn :: acc else acc)
      status []
    |> List.sort Ids.Txn_id.compare
  in
  let in_doubt_of txn state =
    let writes =
      List.filter_map
        (function
          | Log_record.Update { txn = t; key; value; version; _ }
            when Ids.Txn_id.equal t txn ->
              Some (key, value, version)
          | _ -> None)
        log
    in
    {
      txn;
      state;
      participants =
        Option.value (Ids.Txn_map.find_opt participants txn) ~default:[];
      writes;
    }
  in
  let in_doubt =
    List.map (fun t -> in_doubt_of t D_prepared)
      (classify (fun s -> s = Was_prepared))
    @ List.map (fun t -> in_doubt_of t D_precommitted)
        (classify (fun s -> s = Was_precommitted))
    @ List.map (fun t -> in_doubt_of t D_preaborted)
        (classify (fun s -> s = Was_preaborted))
  in
  let in_doubt =
    List.sort (fun a b -> Ids.Txn_id.compare a.txn b.txn) in_doubt
  in
  let collecting_no_decision =
    Ids.Txn_map.fold
      (fun txn () acc ->
        match get txn with Won | Lost -> acc | _ -> txn :: acc)
      collecting []
    |> List.sort Ids.Txn_id.compare
  in
  {
    committed = classify (fun s -> s = Won);
    aborted = classify (fun s -> s = Lost);
    in_doubt;
    collecting = collecting_no_decision;
    redone = !redone;
    scanned = !scanned;
  }

(* Redo cost per log record; scanning one costs a tenth of it. *)
let per_record = Rt_sim.Time.us 5

let replay_duration ~scanned ~redone =
  Rt_sim.Time.add (redone * per_record) (scanned * per_record / 10)
