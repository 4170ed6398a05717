open Rt_sim
open Rt_types

type stats = {
  (* rt_lint: allow fingerprint-coverage -- workload-driver tallies, not simulated site state *)
  mutable committed : int;
  mutable aborted : int;
  mutable retries : int;
}

type t = {
  cluster : Cluster.t;
  site : Ids.site_id;
  gen : Rt_workload.Mix.gen;
  think : Time.t;
  retry_aborts : bool;
  ordered_keys : bool;
  route_by_shard : bool;
  rng : Rng.t;
  stats : stats;
  mutable running : bool;
}

let create ~cluster ~site ~mix ?(think = Time.zero) ?(retry_aborts = true)
    ?(ordered_keys = true) ?(route_by_shard = false) () =
  let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
  {
    cluster;
    site;
    gen = Rt_workload.Mix.generator mix (Rng.split rng);
    think;
    retry_aborts;
    ordered_keys;
    route_by_shard;
    rng;
    stats = { committed = 0; aborted = 0; retries = 0 };
    running = false;
  }

let stats t = t.stats
let stop t = t.running <- false

(* Capped exponential backoff with jitter: attempt [k] (1-based) waits a
   uniform draw from [delay/2, delay] where delay = min(cap, base * 2^(k-1)).
   The jitter comes from the client's own split RNG, so fleets stay
   deterministic per seed while avoiding retry convoys. *)
let backoff_base = Time.us 400
let backoff_cap = Time.ms 25

let backoff t ~attempt =
  let delay =
    (* Shift-based doubling with an overflow guard: beyond the cap (or 62
       doublings) the exponential is irrelevant anyway. *)
    let exp = min (attempt - 1) 62 in
    if exp >= 62 || backoff_base > backoff_cap / (1 lsl exp) then backoff_cap
    else backoff_base * (1 lsl exp)
  in
  Rng.uniform_time t.rng ~lo:(delay / 2) ~hi:delay

(* Shard-aware routing: coordinate at a replica of the first key's
   shard, so single-shard transactions avoid cross-site data rounds.
   The client's home site spreads load deterministically over the
   shard's replicas.  Off by default — the classical experiments submit
   to the home site regardless of placement. *)
let coordinator_for t ops =
  if not t.route_by_shard then t.site
  else
    match ops with
    | [] -> t.site
    | op :: _ ->
        let replicas =
          Rt_placement.Placement.replicas_of_key
            (Cluster.placement t.cluster)
            (Rt_workload.Mix.op_key op)
        in
        List.nth replicas (t.site mod List.length replicas)

let rec run_txn t ~site ~attempt ops =
  if t.running then
    Cluster.submit t.cluster ~site ~ops ~k:(fun outcome ->
        let engine = Cluster.engine t.cluster in
        match outcome with
        | Site.Committed ->
            t.stats.committed <- t.stats.committed + 1;
            ignore
              (Engine.schedule_after engine t.think (fun () -> next_txn t))
        | Site.Aborted _ ->
            t.stats.aborted <- t.stats.aborted + 1;
            if t.retry_aborts then begin
              t.stats.retries <- t.stats.retries + 1;
              ignore
                (Engine.schedule_after engine (backoff t ~attempt) (fun () ->
                     run_txn t ~site ~attempt:(attempt + 1) ops))
            end
            else
              (* Aborts can complete synchronously (e.g. no quorum under a
                 partition), so always put simulated time between
                 attempts or a zero think time spins the clock. *)
              ignore
                (Engine.schedule_after engine
                   (Time.max t.think (backoff t ~attempt))
                   (fun () -> next_txn t)))

and next_txn t =
  if t.running then begin
    let ops =
      if t.ordered_keys then Rt_workload.Mix.next_txn t.gen
      else Rt_workload.Mix.next_txn_unordered t.gen
    in
    run_txn t ~site:(coordinator_for t ops) ~attempt:1 ops
  end

let start t =
  if not t.running then begin
    t.running <- true;
    (* Desynchronise client start instants. *)
    let jitter = Rng.uniform_time t.rng ~lo:0 ~hi:(Time.us 100) in
    ignore
      (Engine.schedule_after (Cluster.engine t.cluster) jitter (fun () ->
           next_txn t))
  end

let start_fleet ~cluster ~clients ~mix ?think ?retry_aborts ?ordered_keys
    ?route_by_shard () =
  let sites = (Cluster.config cluster).sites in
  List.init clients (fun i ->
      let c =
        create ~cluster ~site:(i mod sites) ~mix ?think ?retry_aborts
          ?ordered_keys ?route_by_shard ()
      in
      start c;
      c)

let total clients =
  let acc = { committed = 0; aborted = 0; retries = 0 } in
  List.iter
    (fun c ->
      acc.committed <- acc.committed + c.stats.committed;
      acc.aborted <- acc.aborted + c.stats.aborted;
      acc.retries <- acc.retries + c.stats.retries)
    clients;
  acc
