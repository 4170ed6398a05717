open Rt_sim

type t = {
  engine : Engine.t;
  config : Config.t;
  net : Msg.t Rt_net.Net.t;
  sites : Site.t array;
  counters : Rt_metrics.Counter.t;
}

let create config =
  Config.validate config;
  let engine = Engine.create ~seed:config.seed () in
  let net =
    Rt_net.Net.create ?batch:config.batch_window engine ~nodes:config.sites
      ~default:config.link
  in
  let counters = Rt_metrics.Counter.create () in
  let sites =
    Array.init config.sites (fun id ->
        Site.create ~engine ~id ~config
          ~send:(fun ~dst msg -> Rt_net.Net.send net ~src:id ~dst msg)
          ~counters)
  in
  Array.iter
    (fun site ->
      Rt_net.Net.register net (Site.id site) (fun ~src msg ->
          Site.receive site ~src msg))
    sites;
  Array.iter Site.start sites;
  { engine; config; net; sites; counters }

let engine t = t.engine
let config t = t.config
let placement t = Config.placement t.config

let site t i =
  if i < 0 || i >= Array.length t.sites then
    invalid_arg "Cluster.site: out of range";
  t.sites.(i)

let sites t = t.sites
let counters t = t.counters
let net t = t.net
let net_stats t = Rt_net.Net.stats t.net
let submit t ~site:i ~ops ~k = Site.submit (site t i) ~ops ~k
let run ?until t = Engine.run ?until t.engine
let now t = Engine.now t.engine
let crash_site ?torn t i = Site.crash ?torn (site t i)
let recover_site t i = Site.recover (site t i)
let partition t groups = Rt_net.Partition.split (Rt_net.Net.partition t.net) groups
let heal t = Rt_net.Partition.heal (Rt_net.Net.partition t.net)

let populate t mix =
  let entries = ref [] in
  Rt_workload.Mix.populate mix (fun ~key ~value ->
      entries := (key, value) :: !entries);
  let entries = !entries in
  Array.iter (fun site -> Site.preload site ~entries) t.sites

let latencies t =
  Array.fold_left
    (fun acc site -> Rt_metrics.Sample.merge acc (Site.latencies site))
    (Rt_metrics.Sample.create ()) t.sites

(* One shard's slice of a site's store, key-sorted. *)
let shard_slice placement ~shard kv =
  Rt_storage.Kv.snapshot kv
  |> List.filter (fun (key, _) ->
         Rt_placement.Placement.shard_of_key placement key = shard)

let converged t =
  let placement = Config.placement t.config in
  let shard_ids =
    List.init (Rt_placement.Placement.shards placement) (fun i -> i)
  in
  (* Convergence is per shard: every up replica of a shard must hold a
     byte-identical slice of it.  Non-replicas hold nothing of the shard
     and are not consulted.  Under full replication this degenerates to
     the classical whole-store comparison across all up sites. *)
  List.for_all
    (fun shard ->
      let up =
        Rt_placement.Placement.replicas placement ~shard
        |> List.map (fun i -> t.sites.(i))
        |> List.filter Site.is_up
      in
      match up with
      | [] | [ _ ] -> true
      | first :: rest ->
          let reference = shard_slice placement ~shard (Site.kv first) in
          List.for_all
            (fun s -> shard_slice placement ~shard (Site.kv s) = reference)
            rest)
    shard_ids
