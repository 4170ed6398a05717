open Rt_sim
open Rt_types

type event =
  | Crash of Ids.site_id
  | Recover of Ids.site_id
  | Partition of Ids.site_id list list
  | Heal

let apply cluster = function
  | Crash s -> Cluster.crash_site cluster s
  | Recover s -> Cluster.recover_site cluster s
  | Partition groups -> Cluster.partition cluster groups
  | Heal -> Cluster.heal cluster

let schedule cluster events =
  let engine = Cluster.engine cluster in
  List.iter
    (fun (at, event) ->
      ignore (Engine.schedule_at engine at (fun () -> apply cluster event)))
    events

let isolate_shard cluster ~shard =
  let placement = Cluster.placement cluster in
  let members = Rt_placement.Placement.replicas placement ~shard in
  let rest =
    List.init (Cluster.config cluster).sites (fun i -> i)
    |> List.filter (fun s -> not (List.mem s members))
  in
  Cluster.partition cluster
    (if rest = [] then [ members ] else [ members; rest ])

(* rt_lint: allow fingerprint-coverage -- fault-injector toggle, not simulated site state *)
type process = { mutable running : bool }

let random_crashes cluster ~mttf ~mttr =
  let engine = Cluster.engine cluster in
  let rng = Rng.split (Engine.rng engine) in
  let p = { running = true } in
  let sites = (Cluster.config cluster).sites in
  let rec cycle site =
    if p.running then begin
      let up_for = Rng.exponential_time rng ~mean:mttf in
      ignore
        (Engine.schedule_after engine up_for (fun () ->
             if p.running then begin
               Cluster.crash_site cluster site;
               let down_for = Rng.exponential_time rng ~mean:mttr in
               ignore
                 (Engine.schedule_after engine down_for (fun () ->
                      if p.running then begin
                        Cluster.recover_site cluster site;
                        cycle site
                      end))
             end))
    end
  in
  for site = 0 to sites - 1 do
    cycle site
  done;
  p

let stop p = p.running <- false

(* --- crash-point fault injection ------------------------------------- *)

let observe_crash_points cluster =
  let engine = Cluster.engine cluster in
  let seen = ref [] in
  Engine.set_crash_hook engine
    (Some (fun ~site ~point -> seen := (site, point) :: !seen));
  fun () -> List.rev !seen

let observe_crash_points_sized cluster =
  let engine = Cluster.engine cluster in
  let seen = ref [] in
  Engine.set_crash_hook engine
    (Some
       (fun ~site ~point ->
         (* Snapshot the WAL's cycle size at announcement time: for
            "wal:force-durable" this is the [n] of "crash after [k] of
            [n] records", letting a sweep enumerate every torn point of
            the cycle it just observed. *)
         let cycle =
           Site.wal_last_cycle_size (Cluster.site cluster site)
         in
         seen := (site, point, cycle) :: !seen));
  fun () -> List.rev !seen

let crash_at_point cluster ?torn ~site ~point ~occurrence ~recover_after () =
  let engine = Cluster.engine cluster in
  let count = ref 0 in
  let fired = ref false in
  Engine.set_crash_hook engine
    (Some
       (fun ~site:s ~point:p ->
         if (not !fired) && s = site && String.equal p point then begin
           incr count;
           if !count = occurrence then begin
             fired := true;
             Cluster.crash_site ?torn cluster site;
             ignore
               (Engine.schedule_after engine recover_after (fun () ->
                    Cluster.recover_site cluster site))
           end
         end));
  fun () -> !fired
