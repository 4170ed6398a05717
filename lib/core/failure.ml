open Rt_sim
open Rt_types

module Net = Rt_net.Net

type edge = Ids.site_id * Ids.site_id

type fault =
  | Lossy of { pairs : edge list option; drop : float; duplicate : float }
  | Gray of { pairs : edge list option; factor : int }
  | Partition of Ids.site_id list list
  | Sever of edge list
  | Restore of edge list
  | Heal_partition
  | Reset_links
  | Crash of Ids.site_id
  | Recover of Ids.site_id
  | Torn_crash of { site : Ids.site_id; keep : int }
  | Corrupt_checkpoint of Ids.site_id
  | Recrash of Ids.site_id

let ordered_pairs sites =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst -> if src = dst then None else Some (src, dst))
        (List.init sites Fun.id))
    (List.init sites Fun.id)

(* Site.crash and Site.recover already ignore a site in the wrong state,
   so the site faults need no up/down guard here. *)
let apply cluster fault =
  let net = Cluster.net cluster in
  (* Rewrite the named links ([None] = every ordered pair) in place. *)
  let each_link pairs f =
    let pairs =
      match pairs with
      | Some pairs -> pairs
      | None -> ordered_pairs (Cluster.config cluster).Config.sites
    in
    List.iter
      (fun (src, dst) -> Net.set_link net ~src ~dst (f (Net.link net ~src ~dst)))
      pairs
  in
  match fault with
  | Lossy { pairs; drop; duplicate } ->
      each_link pairs (fun cur -> { cur with drop; duplicate })
  | Gray { pairs; factor } ->
      each_link pairs (fun cur ->
          { cur with latency = Rt_net.Latency.scale cur.latency ~factor })
  | Partition groups -> Cluster.partition cluster groups
  | Sever edges ->
      List.iter
        (fun (src, dst) -> Rt_net.Partition.sever (Net.partition net) ~src ~dst)
        edges
  | Restore edges ->
      List.iter
        (fun (src, dst) ->
          Rt_net.Partition.restore (Net.partition net) ~src ~dst)
        edges
  | Heal_partition -> Cluster.heal cluster
  | Reset_links -> Net.clear_links net
  | Crash s -> Cluster.crash_site cluster s
  | Recover s -> Cluster.recover_site cluster s
  | Torn_crash { site; keep } -> Cluster.crash_site ~torn:keep cluster site
  | Corrupt_checkpoint s -> Site.corrupt_checkpoint (Cluster.site cluster s)
  | Recrash s -> Site.crash_recovering (Cluster.site cluster s)

let schedule cluster faults =
  let engine = Cluster.engine cluster in
  List.iter
    (fun (at, fault) ->
      ignore (Engine.schedule_at engine at (fun () -> apply cluster fault)))
    faults

let isolate_shard cluster ~shard =
  let placement = Cluster.placement cluster in
  let members = Rt_placement.Placement.replicas placement ~shard in
  let rest =
    List.init (Cluster.config cluster).sites (fun i -> i)
    |> List.filter (fun s -> not (List.mem s members))
  in
  Cluster.partition cluster
    (if rest = [] then [ members ] else [ members; rest ])

(* Each site's next step ([crash] or recover) follows its last one after
   an exponential draw.  Steps are unfolded in the order a run would reach
   them — by time, ties in the order they were drawn, as the engine orders
   simultaneous events — so the draws come in the order they would if each
   step were drawn when the one before it fired. *)
let random_crashes cluster ~mttf ~mttr ~until =
  let engine = Cluster.engine cluster in
  let rng = Rng.split (Engine.rng engine) in
  let next at site ~crash =
    let mean = if crash then mttf else mttr in
    (Time.add at (Rng.exponential_time rng ~mean), site, crash)
  in
  let rec insert ((at, _, _) as step) = function
    | ((at', _, _) as s) :: rest when Time.(at' <= at) -> s :: insert step rest
    | rest -> step :: rest
  in
  let rec unfold = function
    | (at, site, crash) :: pending when Time.(at <= until) ->
        let pending = insert (next at site ~crash:(not crash)) pending in
        (at, if crash then Crash site else Recover site) :: unfold pending
    | _ -> []
  in
  let now = Engine.now engine in
  List.init (Cluster.config cluster).sites (fun s -> next now s ~crash:true)
  |> List.stable_sort (fun (a, _, _) (b, _, _) -> Time.compare a b)
  |> unfold

(* --- crash-point fault injection ------------------------------------- *)

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
