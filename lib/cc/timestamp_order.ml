(* Basic timestamp ordering with deferred writes and the Thomas write
   rule at commit, over the shared per-key stamps of [Rt_lock.Stamps]
   (the same rules every replica site runs under [Config.Timestamp]).
   Writes are buffered per transaction and installed at commit; no
   operation ever blocks. *)

open Rt_types
open Rt_storage
module Stamps = Rt_lock.Stamps

let name = "TO"

type ctx = {
  writes : (string, string) Hashtbl.t;
  mutable alive : bool;
}

type t = {
  kv : Kv.t;
  stamps : Stamps.t;
  ctxs : ctx Ids.Txn_map.t;
  stats : Scheduler.stats;
  history : History.t option;
}

let create ?history _engine kv =
  {
    kv;
    stamps = Stamps.create ();
    ctxs = Ids.Txn_map.create 64;
    stats = Scheduler.fresh_stats ();
    history;
  }

let stats t = t.stats

let begin_txn t txn =
  t.stats.started <- t.stats.started + 1;
  Ids.Txn_map.replace t.ctxs txn { writes = Hashtbl.create 8; alive = true }

let ctx_of t txn =
  match Ids.Txn_map.find_opt t.ctxs txn with
  | Some c -> c
  | None -> invalid_arg "Timestamp_order: unknown transaction"

let do_abort t txn ctx ~order =
  if ctx.alive then begin
    ctx.alive <- false;
    t.stats.aborted <- t.stats.aborted + 1;
    if order then t.stats.order_aborts <- t.stats.order_aborts + 1;
    Option.iter (fun h -> History.abort h txn) t.history;
    Stamps.release t.stamps ~txn;
    Ids.Txn_map.remove t.ctxs txn
  end

let read t ~txn ~key ~k =
  let ctx = ctx_of t txn in
  if not ctx.alive then k `Abort
  else
    match Hashtbl.find_opt ctx.writes key with
    | Some v -> k (`Value (Some v))
    | None ->
        if Stamps.read t.stamps ~txn ~key then begin
          Option.iter
            (fun h -> History.read h txn ~key ~version:(Kv.version t.kv key))
            t.history;
          k (`Value (Option.map (fun (i : Kv.item) -> i.value) (Kv.get t.kv key)))
        end
        else begin
          do_abort t txn ctx ~order:true;
          k `Abort
        end

let write t ~txn ~key ~value ~k =
  let ctx = ctx_of t txn in
  if not ctx.alive then k `Abort
  else if Stamps.write t.stamps ~txn ~key then begin
    Hashtbl.replace ctx.writes key value;
    k `Ok
  end
  else begin
    do_abort t txn ctx ~order:true;
    k `Abort
  end

let commit t ~txn ~k =
  let ctx = ctx_of t txn in
  if not ctx.alive then k `Aborted
  else begin
    Stamps.release t.stamps ~txn;
    Rt_sim.Det.iter_sorted ~cmp:String.compare
      (fun key value ->
        (* Thomas write rule: skip writes already superseded. *)
        if Stamps.install t.stamps ~txn ~key then begin
          let version = Kv.version t.kv key + 1 in
          Kv.set t.kv ~key ~value ~version;
          Option.iter (fun h -> History.write h txn ~key ~version) t.history
        end)
      ctx.writes;
    t.stats.committed <- t.stats.committed + 1;
    Option.iter (fun h -> History.commit h txn) t.history;
    Ids.Txn_map.remove t.ctxs txn;
    k `Committed
  end

let abort t ~txn =
  match Ids.Txn_map.find_opt t.ctxs txn with
  | Some ctx -> do_abort t txn ctx ~order:false
  | None -> ()
