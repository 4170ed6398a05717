open Rt_sim
open Rt_types

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

module type SCHEME = Scheduler.S

(* Simulated cost of one client step: each data operation, the pause
   before the next transaction, and the unit of the retry backoff. *)
let op_cost = Time.us 2

let driver (type s) (module S : SCHEME with type t = s) (st : s) ~engine ~rng
    ~clients ~mix ~horizon ~ordered =
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
    S.begin_txn st txn;
    let rec step remaining =
      match remaining with
      | [] ->
          S.commit st ~txn ~k:(fun outcome ->
              match outcome with
              | `Committed -> after c
              | `Aborted -> retry c ops)
      | op :: rest ->
          let continue ok = if ok then after_op rest else retry c ops in
          let dispatch () =
            match op with
            | Rt_workload.Mix.Read key ->
                S.read st ~txn ~key ~k:(function
                  | `Value _ -> continue true
                  | `Abort -> continue false)
            | Rt_workload.Mix.Write (key, value) ->
                S.write st ~txn ~key ~value ~k:(function
                  | `Ok -> continue true
                  | `Abort -> continue false)
          in
          ignore (Engine.schedule_after engine op_cost dispatch)
    and after_op rest = step rest in
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
  let kv = Rt_storage.Kv.create () in
  Rt_workload.Mix.populate mix (fun ~key ~value ->
      Rt_storage.Kv.set kv ~key ~value ~version:1);
  let history = if check_history then Some (History.create ()) else None in
  let horizon = duration in
  let run_2pl policy =
    let st = Two_phase_locking.create_with_policy ?history ~policy kv in
    driver (module Two_phase_locking) st ~engine ~rng ~clients ~mix ~horizon
      ~ordered;
    Two_phase_locking.stats st
  in
  let stats =
    match scheme with
    | Two_pl -> run_2pl `Detect
    | Two_pl_wound_wait -> run_2pl `Wound_wait
    | Two_pl_wait_die -> run_2pl `Wait_die
    | Timestamp ->
        let st = Timestamp_order.create ?history engine kv in
        driver (module Timestamp_order) st ~engine ~rng ~clients ~mix ~horizon
          ~ordered;
        Timestamp_order.stats st
    | Optimistic ->
        let st = Occ.create ?history engine kv in
        driver (module Occ) st ~engine ~rng ~clients ~mix ~horizon ~ordered;
        Occ.stats st
  in
  let attempts = stats.committed + stats.aborted in
  {
    scheme = scheme_name scheme;
    committed = stats.committed;
    aborted = stats.aborted;
    deadlock_aborts = stats.deadlock_aborts;
    order_aborts = stats.order_aborts;
    validation_aborts = stats.validation_aborts;
    duration;
    throughput = float_of_int stats.committed /. Time.to_float_s duration;
    abort_rate =
      (if attempts = 0 then 0.
       else float_of_int stats.aborted /. float_of_int attempts);
    serializable = Option.map History.serializable history;
  }
