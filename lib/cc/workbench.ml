(* One transaction core for every local concurrency-control scheme.

   Writes are buffered per transaction and installed at commit, so every
   scheme presents the same recoverable, strict behaviour.  The schemes
   differ only in how they admit an operation ([admit]) and in what they
   check at commit (OCC's validation, TO's Thomas write rule). *)

open Rt_sim
open Rt_types
open Rt_storage
module Tid = Ids.Txn_id
module Lock = Rt_lock.Lock_table
module Stamps = Rt_lock.Stamps

type result = {
  scheme : string;
  committed : int;
  aborted : int;
  deadlock_aborts : int;
  order_aborts : int;
  validation_aborts : int;
  duration : Time.t;
  throughput : float;
  abort_rate : float;
  serializable : bool option;
}

type scheme =
  | Two_pl
  | Two_pl_wound_wait
  | Two_pl_wait_die
  | Timestamp
  | Optimistic

let scheme_name = function
  | Two_pl -> "2PL"
  | Two_pl_wound_wait -> "2PL-WW"
  | Two_pl_wait_die -> "2PL-WD"
  | Timestamp -> "TO"
  | Optimistic -> "OCC"

let all_schemes = [ Two_pl; Timestamp; Optimistic ]
let all_2pl_policies = [ Two_pl; Two_pl_wound_wait; Two_pl_wait_die ]

type stats = {
  mutable committed : int;
  mutable aborted : int;
  mutable deadlock_aborts : int;
  mutable order_aborts : int;
  mutable validation_aborts : int;
}

type txn = {
  writes : (string, string) Hashtbl.t;
  seen : (string, int) Hashtbl.t;  (* OCC: key -> version first observed *)
  (* 2PL: refuses the request the transaction is blocked on, should it
     be killed while it waits. *)
  mutable refuse : (unit -> unit) option;
}

(* A killed or committed transaction leaves [txns]; a client that calls
   on it again (a wounded transaction between operations) is told it
   aborted. *)
type t = {
  scheme : scheme;
  kv : Kv.t;
  locks : Lock.t;
  stamps : Stamps.t;
  txns : txn Ids.Txn_map.t;
  stats : stats;
  history : History.t option;
}

let create ?history ~scheme kv =
  {
    scheme;
    kv;
    locks = Lock.create ();
    stamps = Stamps.create ();
    txns = Ids.Txn_map.create 64;
    stats =
      {
        committed = 0;
        aborted = 0;
        deadlock_aborts = 0;
        order_aborts = 0;
        validation_aborts = 0;
      };
    history;
  }

let stats t = t.stats

let begin_txn t txn =
  Ids.Txn_map.replace t.txns txn
    { writes = Hashtbl.create 8; seen = Hashtbl.create 8; refuse = None }

let kill t txn reason =
  match Ids.Txn_map.find_opt t.txns txn with
  | None -> ()
  | Some tx ->
      let s = t.stats in
      s.aborted <- s.aborted + 1;
      (match reason with
      | `Deadlock -> s.deadlock_aborts <- s.deadlock_aborts + 1
      | `Order -> s.order_aborts <- s.order_aborts + 1
      | `Validation -> s.validation_aborts <- s.validation_aborts + 1);
      Option.iter (fun h -> History.abort h txn) t.history;
      (* Releasing also drops any queued request, so its grant can never
         fire afterwards. *)
      Lock.release_all t.locks ~txn;
      Stamps.release t.stamps ~txn;
      Ids.Txn_map.remove t.txns txn;
      Option.iter (fun refuse -> refuse ()) tx.refuse

(* Transactions a new request may end up waiting behind: holders whose
   mode conflicts, plus everything already queued (FIFO order makes any
   queued request a potential blocker regardless of mode). *)
let blockers t ~txn ~key ~mode =
  let holders =
    List.filter_map
      (fun (h, m) ->
        match (mode, m) with
        | Lock.Shared, Lock.Shared -> None
        | _ -> if Tid.equal h txn then None else Some h)
      (Lock.holders t.locks ~key)
  in
  holders
  @ List.filter
      (fun w -> not (Tid.equal w txn))
      (List.map fst (Lock.waiters t.locks ~key))

(* Strict 2PL: every lock is held to commit or abort.  Wound-wait (an
   older requester aborts younger parties in its way) and wait-die (a
   younger requester facing an older party aborts itself) act before
   queueing, so every wait edge points one way in age and no cycle can
   form; detection aborts the youngest of a cycle once the request
   queues. *)
let lock t tx ~txn ~key ~mode ~granted ~refused =
  if t.scheme = Two_pl_wound_wait then
    List.iter
      (fun other -> if Tid.older txn other then kill t other `Deadlock)
      (blockers t ~txn ~key ~mode);
  if
    t.scheme = Two_pl_wait_die
    && List.exists
         (fun other -> Tid.older other txn)
         (blockers t ~txn ~key ~mode)
  then begin
    kill t txn `Deadlock;
    refused ()
  end
  else
    match
      Lock.acquire t.locks ~txn ~key ~mode ~on_grant:(fun () ->
          tx.refuse <- None;
          granted ())
    with
    | Granted -> granted ()
    | Waiting ->
        tx.refuse <- Some refused;
        if t.scheme = Two_pl then
          Lock.resolve_deadlocks t.locks ~kill:(fun victim ->
              kill t victim `Deadlock)

(* The scheme's own rule for one operation: [granted] runs once the
   operation may proceed, [refused] once the transaction is killed. *)
let admit t tx ~txn ~key ~mode ~granted ~refused =
  match t.scheme with
  | Two_pl | Two_pl_wound_wait | Two_pl_wait_die ->
      lock t tx ~txn ~key ~mode ~granted ~refused
  | Timestamp ->
      (* Basic TO never blocks: admit now or kill. *)
      let admitted =
        match mode with
        | Lock.Shared -> Stamps.read t.stamps ~txn ~key
        | Lock.Exclusive -> Stamps.write t.stamps ~txn ~key
      in
      if admitted then granted ()
      else begin
        kill t txn `Order;
        refused ()
      end
  | Optimistic ->
      (* Also the version a write overwrites, so that blind write-write
         conflicts fail validation too (first committer wins). *)
      if not (Hashtbl.mem tx.seen key) then
        Hashtbl.replace tx.seen key (Kv.version t.kv key);
      granted ()

let read t ~txn ~key ~k =
  match Ids.Txn_map.find_opt t.txns txn with
  | None -> k `Abort
  | Some tx -> (
      match Hashtbl.find_opt tx.writes key with
      | Some v -> k (`Value (Some v))
      | None ->
          admit t tx ~txn ~key ~mode:Lock.Shared
            ~refused:(fun () -> k `Abort)
            ~granted:(fun () ->
              (* OCC records its reads at commit, once validated. *)
              if t.scheme <> Optimistic then
                Option.iter
                  (fun h ->
                    History.read h txn ~key ~version:(Kv.version t.kv key))
                  t.history;
              let item = Kv.get t.kv key in
              k (`Value (Option.map (fun (i : Kv.item) -> i.value) item))))

let write t ~txn ~key ~value ~k =
  match Ids.Txn_map.find_opt t.txns txn with
  | None -> k `Abort
  | Some tx ->
      admit t tx ~txn ~key ~mode:Lock.Exclusive
        ~refused:(fun () -> k `Abort)
        ~granted:(fun () ->
          Hashtbl.replace tx.writes key value;
          k `Ok)

(* Backward validation: every version observed is still current.  With
   validation and the write phase in one step, no other commit can slip
   in between (the simulator is single-threaded). *)
let validate t tx =
  (* rt_lint: allow deterministic-iteration -- order-insensitive conjunction *)
  Hashtbl.fold
    (fun key version ok -> ok && Kv.version t.kv key = version)
    tx.seen true

let commit t ~txn ~k =
  match Ids.Txn_map.find_opt t.txns txn with
  | None -> k `Aborted
  | Some tx when t.scheme = Optimistic && not (validate t tx) ->
      kill t txn `Validation;
      k `Aborted
  | Some tx ->
      if t.scheme = Optimistic then
        Option.iter
          (fun h ->
            Det.iter_sorted ~cmp:String.compare
              (fun key version ->
                if not (Hashtbl.mem tx.writes key) then
                  History.read h txn ~key ~version)
              tx.seen)
          t.history;
      Stamps.release t.stamps ~txn;
      Det.iter_sorted ~cmp:String.compare
        (fun key value ->
          (* Thomas write rule: TO skips a write already superseded. *)
          if t.scheme <> Timestamp || Stamps.install t.stamps ~txn ~key
          then begin
            let version = Kv.version t.kv key + 1 in
            Kv.set t.kv ~key ~value ~version;
            Option.iter (fun h -> History.write h txn ~key ~version) t.history
          end)
        tx.writes;
      t.stats.committed <- t.stats.committed + 1;
      Option.iter (fun h -> History.commit h txn) t.history;
      (* Grants fire here, before this client's continuation runs. *)
      Lock.release_all t.locks ~txn;
      Ids.Txn_map.remove t.txns txn;
      k `Committed

(* Simulated cost of one client step: each data operation, the pause
   before the next transaction, and the unit of the retry backoff. *)
let op_cost = Time.us 2

let drive st ~engine ~rng ~clients ~mix ~horizon ~ordered =
  let seq = ref 0 in
  let fresh origin =
    incr seq;
    Ids.Txn_id.make ~origin ~seq:!seq ~start_ts:(Engine.now engine)
  in
  let gens =
    Array.init clients (fun _ -> Rt_workload.Mix.generator mix (Rng.split rng))
  in
  let rec client_loop c =
    if Time.(Engine.now engine < horizon) then begin
      let ops =
        if ordered then Rt_workload.Mix.next_txn gens.(c)
        else Rt_workload.Mix.next_txn_unordered gens.(c)
      in
      attempt c ops
    end
  and attempt c ops =
    let txn = fresh c in
    begin_txn st txn;
    let rec step remaining =
      match remaining with
      | [] ->
          commit st ~txn ~k:(fun outcome ->
              match outcome with
              | `Committed -> after c
              | `Aborted -> retry c ops)
      | op :: rest ->
          let continue ok = if ok then step rest else retry c ops in
          let dispatch () =
            match op with
            | Rt_workload.Mix.Read key ->
                read st ~txn ~key ~k:(function
                  | `Value _ -> continue true
                  | `Abort -> continue false)
            | Rt_workload.Mix.Write (key, value) ->
                write st ~txn ~key ~value ~k:(function
                  | `Ok -> continue true
                  | `Abort -> continue false)
          in
          ignore (Engine.schedule_after engine op_cost dispatch)
    in
    step ops
  and retry c ops =
    if Time.(Engine.now engine < horizon) then
      let backoff = Rng.uniform_time rng ~lo:op_cost ~hi:(op_cost * 10) in
      ignore (Engine.schedule_after engine backoff (fun () -> attempt c ops))
  and after c =
    ignore (Engine.schedule_after engine op_cost (fun () -> client_loop c))
  in
  for c = 0 to clients - 1 do
    (* Stagger starts so timestamps differ. *)
    ignore
      (Engine.schedule_after engine (Time.ns c) (fun () -> client_loop c))
  done;
  Engine.run ~until:horizon engine

let run ?(seed = 0) ?(check_history = false) ?(ordered = true) ~scheme
    ~clients ~mix ~duration () =
  let engine = Engine.create ~seed () in
  let rng = Rng.split (Engine.rng engine) in
  let kv = Kv.create () in
  Rt_workload.Mix.populate mix (fun ~key ~value ->
      Kv.set kv ~key ~value ~version:1);
  let history = if check_history then Some (History.create ()) else None in
  let st = create ?history ~scheme kv in
  drive st ~engine ~rng ~clients ~mix ~horizon:duration ~ordered;
  let s = st.stats in
  let attempts = s.committed + s.aborted in
  {
    scheme = scheme_name scheme;
    committed = s.committed;
    aborted = s.aborted;
    deadlock_aborts = s.deadlock_aborts;
    order_aborts = s.order_aborts;
    validation_aborts = s.validation_aborts;
    duration;
    throughput = float_of_int s.committed /. Time.to_float_s duration;
    abort_rate =
      (if attempts = 0 then 0.
       else float_of_int s.aborted /. float_of_int attempts);
    serializable = Option.map History.serializable history;
  }
