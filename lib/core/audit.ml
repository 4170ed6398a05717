(* Shared invariant auditor.  One implementation of the end-of-run checks
   that every harness (soak, crash sweep, nemesis campaigns) runs against a
   cluster: agreement, durability, fork-freedom, per-site hygiene, protocol
   quiescence, and per-shard convergence. *)

open Rt_sim
open Rt_types
module Kv = Rt_storage.Kv
module P = Rt_commit.Protocol
module Tid = Ids.Txn_id

type violation = { inv : string; detail : string }

let v inv detail = { inv; detail }
let pp_violation fmt x = Format.fprintf fmt "%s: %s" x.inv x.detail

(* Keys holding the same version with different values on two sites:
   split-brain evidence, counted once per key and site pair. *)
let fork_freedom cluster =
  let sites = Cluster.sites cluster in
  let forks = ref 0 in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            Kv.iter (Site.kv a) (fun key (ia : Kv.item) ->
                match Kv.get (Site.kv b) key with
                | Some ib when ia.version = ib.version && ia.value <> ib.value
                  ->
                    incr forks
                | _ -> ()))
        sites)
    sites;
  if !forks = 0 then []
  else [ v "agreement" (Printf.sprintf "%d forked keys (split brain!)" !forks) ]

let site_hygiene cluster =
  let out = ref [] in
  let add inv detail = out := v inv detail :: !out in
  Array.iter
    (fun s ->
      let id = Site.id s in
      if not (Site.serving s) then
        add "recovery" (Printf.sprintf "site %d not serving" id);
      let ap = Site.active_participants s in
      if ap > 0 then
        add "termination"
          (Printf.sprintf "site %d: %d unresolved participants" id ap);
      let bp = Site.blocked_participants s in
      if bp > 0 then
        add "termination"
          (Printf.sprintf "site %d: %d blocked participants" id bp);
      let hl = Site.held_locks s in
      if hl > 0 then
        add "locks"
          (Printf.sprintf "site %d: %d keys still locked (%s)" id hl
             (String.concat "; " (Site.lock_debug s)));
      let pt = Site.pending_protocol_timers s in
      if pt > 0 then
        add "timers"
          (Printf.sprintf "site %d: %d protocol timers still pending" id pt);
      (* WAL group-commit accounting must be crash-consistent: every
         device cycle ever started either completed, was lost entirely
         to a crash, or was left torn by one (the device cannot still be
         busy at quiescence), and no force continuation is left waiting
         on a live site. *)
      let ws = Site.wal_stats s in
      if ws.Rt_storage.Wal.st_started
         <> ws.Rt_storage.Wal.st_completed + ws.Rt_storage.Wal.st_lost
            + ws.Rt_storage.Wal.st_torn
      then
        add "wal-stats"
          (Printf.sprintf
             "site %d: force cycles unaccounted (started=%d completed=%d \
              lost=%d torn=%d)"
             id ws.Rt_storage.Wal.st_started ws.Rt_storage.Wal.st_completed
             ws.Rt_storage.Wal.st_lost ws.Rt_storage.Wal.st_torn);
      if ws.Rt_storage.Wal.st_pending > 0 then
        add "wal-stats"
          (Printf.sprintf "site %d: %d force continuations still waiting" id
             ws.Rt_storage.Wal.st_pending);
      (* Corruption below the durable horizon is silent data loss the
         moment recovery accepts it; the scan refuses the records, and
         this check makes the refusal loud. *)
      let cd = Site.corruption_detected s in
      if cd > 0 then
        add "storage"
          (Printf.sprintf
             "site %d: %d durable log records lost to corruption" id cd))
    (Cluster.sites cluster);
  List.rev !out

let decisions cluster =
  let by_txn = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      List.iter
        (fun (txn, d) ->
          let prev = Option.value (Hashtbl.find_opt by_txn txn) ~default:[] in
          Hashtbl.replace by_txn txn ((Site.id s, d) :: prev))
        (Site.decided_txns s))
    (Cluster.sites cluster);
  Hashtbl.fold (fun txn ds acc -> (txn, ds) :: acc) by_txn []
  |> List.sort (fun (a, _) (b, _) -> Tid.compare a b)

let agreement cluster =
  List.filter_map
    (fun (txn, ds) ->
      let commits = List.filter (fun (_, d) -> P.decision_equal d P.Commit) ds in
      let aborts = List.filter (fun (_, d) -> P.decision_equal d P.Abort) ds in
      if commits <> [] && aborts <> [] then
        Some
          (v "agreement"
             (Format.asprintf "txn %a: commit at %s, abort at %s" Tid.pp txn
                (String.concat ","
                   (List.map (fun (s, _) -> string_of_int s) commits))
                (String.concat ","
                   (List.map (fun (s, _) -> string_of_int s) aborts))))
      else None)
    (decisions cluster)

let any_committed cluster =
  List.exists
    (fun (_, ds) ->
      List.exists (fun (_, d) -> P.decision_equal d P.Commit) ds)
    (decisions cluster)

let durability cluster ~writes =
  let placement = Cluster.placement cluster in
  List.concat_map
    (fun (key, value) ->
      List.filter_map
        (fun id ->
          let s = Cluster.site cluster id in
          let have =
            Option.map (fun (i : Kv.item) -> i.value) (Kv.get (Site.kv s) key)
          in
          if have <> Some value then
            Some
              (v "durability"
                 (Printf.sprintf
                    "site %d: committed write %s=%s missing (found %s)"
                    (Site.id s) key value
                    (Option.value have ~default:"nothing")))
          else None)
        (Rt_placement.Placement.replicas_of_key placement key))
    writes

let divergence = v "durability" "replica stores diverge within a shard"

(* A quorum write reaches a write quorum, not every copy, and reads
   resolve versions past the stale ones: such copies may differ. *)
let convergence cluster =
  let rc = (Cluster.config cluster).replica_control in
  if
    Rt_replica.Replica_control.read_needs_version_resolution rc
    || Cluster.converged cluster
  then []
  else [ divergence ]

let quiescence cluster ~settle =
  let msgs () =
    Rt_metrics.Counter.get (Cluster.counters cluster) "commit_protocol_msgs"
  in
  let before = msgs () in
  Cluster.run ~until:(Time.add (Cluster.now cluster) settle) cluster;
  let after = msgs () in
  if after > before then
    [
      v "termination"
        (Printf.sprintf "commit protocol not quiescent: %d messages after settle"
           (after - before));
    ]
  else []

let standard ?(writes = []) ?settle cluster =
  let quiescent =
    match settle with None -> [] | Some s -> quiescence cluster ~settle:s
  in
  quiescent @ site_hygiene cluster @ agreement cluster @ fork_freedom cluster
  @ (if any_committed cluster then durability cluster ~writes else [])
  @ convergence cluster
