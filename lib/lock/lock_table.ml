open Rt_types
module Tid = Ids.Txn_id

type mode = Shared | Exclusive

let pp_mode fmt = function
  | Shared -> Format.pp_print_string fmt "S"
  | Exclusive -> Format.pp_print_string fmt "X"

type request = {
  txn : Tid.t;
  mode : mode;
  upgrade : bool;  (* txn already holds Shared on this key *)
  on_grant : unit -> unit;
}

type entry = {
  mutable holders : (Tid.t * mode) list;
  mutable waiting : request list;  (* FIFO order: head is next candidate *)
}

type t = {
  table : (string, entry) Hashtbl.t;
  held : string list ref Ids.Txn_map.t;  (* txn -> keys it holds *)
  waits : string list ref Ids.Txn_map.t;  (* txn -> keys it waits on *)
}

type outcome = Granted | Waiting

let create () =
  {
    table = Hashtbl.create 256;
    held = Ids.Txn_map.create 64;
    waits = Ids.Txn_map.create 64;
  }

let entry_for t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { holders = []; waiting = [] } in
      Hashtbl.add t.table key e;
      e

let index_add map txn key =
  match Ids.Txn_map.find_opt map txn with
  | Some r -> r := key :: !r
  | None -> Ids.Txn_map.replace map txn (ref [ key ])

(* Remove ONE occurrence only: a transaction can have several requests
   queued on the same key (duplicate network deliveries), and each keeps
   its own index entry.  Filtering every occurrence here would blind
   [release_all] to the survivors, which can then be spuriously granted
   to an already-dead transaction during its own release — a permanent
   lock leak. *)
let index_remove map txn key =
  match Ids.Txn_map.find_opt map txn with
  | Some r ->
      let rec drop_one = function
        | [] -> []
        | k :: rest -> if k = key then rest else k :: drop_one rest
      in
      r := drop_one !r;
      if !r = [] then Ids.Txn_map.remove map txn
  | None -> ()

(* A holder entry of the requester itself never conflicts: duplicate
   deliveries of the same operation must not queue behind (and time out
   on) their own first copy. *)
let compatible ~txn mode holders =
  match mode with
  | Shared ->
      List.for_all (fun (h, m) -> Tid.equal h txn || m = Shared) holders
  | Exclusive -> List.for_all (fun (h, _) -> Tid.equal h txn) holders

(* Can [r] be granted right now given [e]'s holders?  An upgrade is
   grantable when the requester is the only holder. *)
let grantable e r =
  if r.upgrade then
    match e.holders with [ (h, Shared) ] -> Tid.equal h r.txn | _ -> false
  else compatible ~txn:r.txn r.mode e.holders

let do_grant t key e r =
  if r.upgrade then e.holders <- [ (r.txn, Exclusive) ]
  else
    let mine, others =
      List.partition (fun (h, _) -> Tid.equal h r.txn) e.holders
    in
    match mine with
    | [] ->
        e.holders <- (r.txn, r.mode) :: others;
        index_add t.held r.txn key
    | _ ->
        (* Already a holder (duplicate delivery, or an S and an X request
           that were queued together): keep a single entry at the
           strongest mode and leave the held index alone — a second
           entry per (txn, key) would desync it. *)
        let strongest =
          if r.mode = Exclusive || List.exists (fun (_, m) -> m = Exclusive) mine
          then Exclusive
          else Shared
        in
        e.holders <- (r.txn, strongest) :: others

(* After holders change, grant a maximal compatible prefix of the queue.
   Returns the granted requests in order; callbacks are the caller's to
   fire (after state is consistent). *)
let promote t key e =
  let granted = ref [] in
  let rec go () =
    match e.waiting with
    | r :: rest when grantable e r ->
        e.waiting <- rest;
        index_remove t.waits r.txn key;
        do_grant t key e r;
        granted := r :: !granted;
        go ()
    | _ -> ()
  in
  go ();
  List.rev !granted

let fire granted = List.iter (fun r -> r.on_grant ()) granted

let holds t ~txn ~key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e -> (
      match List.filter (fun (h, _) -> Tid.equal h txn) e.holders with
      | [] -> None
      | held ->
          if List.exists (fun (_, m) -> m = Exclusive) held then Some Exclusive
          else Some Shared)

let acquire t ~txn ~key ~mode ~on_grant =
  let e = entry_for t key in
  match holds t ~txn ~key with
  | Some Exclusive -> Granted
  | Some Shared when mode = Shared -> Granted
  | Some Shared ->
      (* Upgrade request. *)
      let r = { txn; mode = Exclusive; upgrade = true; on_grant } in
      if grantable e r && e.waiting = [] then begin
        do_grant t key e r;
        Granted
      end
      else begin
        (* Upgrades go to the front: nothing behind the current holders can
           be granted before the upgrade anyway, and queue-jumping avoids
           an immediate deadlock with ordinary waiters. *)
        e.waiting <- r :: e.waiting;
        index_add t.waits txn key;
        Waiting
      end
  | None ->
      let r = { txn; mode; upgrade = false; on_grant } in
      if e.waiting = [] && grantable e r then begin
        do_grant t key e r;
        Granted
      end
      else begin
        e.waiting <- e.waiting @ [ r ];
        index_add t.waits txn key;
        Waiting
      end

let release_all t ~txn =
  (* Remove queued requests first so they cannot be spuriously granted.
     Dropping a queued request can itself unblock compatible waiters that
     were queued behind it (e.g. readers behind a cancelled writer), so
     these keys must be re-promoted too. *)
  let waited_keys =
    match Ids.Txn_map.find_opt t.waits txn with
    | None -> []
    | Some keys ->
        List.iter
          (fun key ->
            match Hashtbl.find_opt t.table key with
            | None -> ()
            | Some e ->
                e.waiting <-
                  List.filter (fun r -> not (Tid.equal r.txn txn)) e.waiting)
          !keys;
        Ids.Txn_map.remove t.waits txn;
        !keys
  in
  (* Then drop held locks and promote waiters. *)
  let held_keys =
    match Ids.Txn_map.find_opt t.held txn with
    | None -> []
    | Some keys ->
        Ids.Txn_map.remove t.held txn;
        !keys
  in
  let all_granted =
    List.concat_map
      (fun key ->
        match Hashtbl.find_opt t.table key with
        | None -> []
        | Some e ->
            e.holders <-
              List.filter (fun (h, _) -> not (Tid.equal h txn)) e.holders;
            let granted = promote t key e in
            if e.holders = [] && e.waiting = [] then Hashtbl.remove t.table key;
            granted)
      (List.sort_uniq String.compare (held_keys @ waited_keys))
  in
  fire all_granted

let holders t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some e -> List.rev e.holders

let waiters t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some e -> List.map (fun r -> (r.txn, r.mode)) e.waiting

let is_waiting t ~txn = Ids.Txn_map.mem t.waits txn

let held_keys t ~txn =
  match Ids.Txn_map.find_opt t.held txn with
  | None -> []
  | Some keys -> List.sort_uniq String.compare !keys

let conflicts a b =
  match (a, b) with Shared, Shared -> false | _ -> true

(* The one waits-for rule, shared by probes ([blocking]) and detection:
   [f r b] for each request [r] queued on [e] and each transaction [b] it
   must out-wait — an incompatible holder or an incompatible request
   queued ahead of it (FIFO).  A blocker can repeat; callers
   deduplicate. *)
let iter_waits e f =
  let rec walk ahead = function
    | [] -> ()
    | r :: rest ->
        let out_wait b m =
          if (not (Tid.equal b r.txn)) && conflicts r.mode m then f r b
        in
        List.iter (fun (h, m) -> out_wait h m) e.holders;
        List.iter (fun r' -> out_wait r'.txn r'.mode) ahead;
        walk (r :: ahead) rest
  in
  walk [] e.waiting

let blocking t ~txn =
  match Ids.Txn_map.find_opt t.waits txn with
  | None -> []
  | Some keys ->
      let acc = ref [] in
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.table key with
          | None -> ()
          | Some e ->
              iter_waits e (fun r b ->
                  if Tid.equal r.txn txn then acc := b :: !acc))
        (List.sort_uniq String.compare !keys);
      List.sort_uniq Tid.compare !acc

let detect_deadlock t =
  let edges = ref [] in
  (* rt_lint: allow deterministic-iteration -- Wfg.find_cycle depends only on the set of edges *)
  Hashtbl.iter
    (fun _key e ->
      iter_waits e (fun r b -> edges := (r.txn, b) :: !edges))
    t.table;
  Option.map Wfg.victim (Wfg.find_cycle !edges)

let rec resolve_deadlocks t ~kill =
  match detect_deadlock t with
  | None -> ()
  | Some victim ->
      kill victim;
      if is_waiting t ~txn:victim then
        invalid_arg "Lock_table.resolve_deadlocks: kill left its victim waiting";
      resolve_deadlocks t ~kill

let locked_keys t = Hashtbl.length t.table

let dump t =
  Hashtbl.fold
    (fun key e acc -> (key, List.rev e.holders, List.map (fun r -> (r.txn, r.mode)) e.waiting) :: acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
