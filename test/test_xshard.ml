(* Cross-shard atomicity: a transaction touching several shards must
   commit on every replica of every touched shard, or on none of them —
   even across crashes and partitions.  The property tests drive the
   schedule-exploring sandbox with participant sets derived from real
   placements and the full cluster with mid-protocol crash injection;
   the regression test isolates one shard's replica island and checks
   cross-shard transactions abort without split-brain. *)

open Rt_sim
open Rt_core
open Rt_placement
module Mix = Rt_workload.Mix
module Sandbox = Rt_commit.Sandbox

let sharded_config ?(sites = 5) ?(degree = 3) ?(layout = Placement.Round_robin)
    ?(seed = 1) () =
  let placement =
    Placement.create ~layout ~map:(Shard_map.range ~boundaries:[ "b" ]) ~sites
      ~degree ()
  in
  ( { (Config.default ~sites ()) with placement = Some placement; seed },
    placement )

let run_for cluster duration =
  Cluster.run ~until:(Time.add (Cluster.now cluster) duration) cluster

let value_at cluster site key =
  Option.map
    (fun (i : Rt_storage.Kv.item) -> i.value)
    (Rt_storage.Kv.get (Site.kv (Cluster.site cluster site)) key)

(* Every replica of [key]'s shard holds the same value for it. *)
let uniform_at cluster placement key =
  match Placement.replicas_of_key placement key with
  | [] -> Alcotest.fail "key owned by no replica"
  | first :: rest ->
      let v0 = value_at cluster first key in
      List.iter
        (fun s ->
          if value_at cluster s key <> v0 then
            Alcotest.failf "replicas of %s disagree (site %d vs %d)" key first
              s)
        rest;
      v0

(* --- sandbox interleaver property ------------------------------------ *)

(* The participant set of a cross-shard transaction is the union of the
   touched shards' replica sets.  Model that union in the sandbox: for
   random placements, schedules, votes, and a mid-protocol crash with
   recovery, no two participants may ever decide differently. *)
let prop_union_participants_agree =
  let protos = Array.of_list (List.map snd Rt_commit.Commit_protocol.all) in
  QCheck.Test.make ~name:"cross-shard participant union agrees" ~count:250
    QCheck.(
      quad (int_range 0 99999)
        (pair (int_range 4 8) (int_range 2 3))
        (pair small_nat small_nat)
        small_nat)
    (fun (seed, (sites, degree), (crash_site, crash_after), vote_bits) ->
      let p =
        Placement.create
          ~map:(Shard_map.range ~boundaries:[ "b" ])
          ~sites ~degree ()
      in
      let union =
        List.sort_uniq Int.compare
          (Placement.replicas p ~shard:0 @ Placement.replicas p ~shard:1)
      in
      let n = List.length union in
      QCheck.assume (n >= 2);
      let votes = Array.init n (fun i -> vote_bits land (1 lsl i) <> 0) in
      let crash = crash_site mod n in
      let after = 1 + (crash_after mod 40) in
      let outcome =
        Sandbox.run ~seed
          ~crashes:[ (crash, after) ]
          ~recoveries:[ (crash, after + 25) ]
          ~proto:protos.(seed mod Array.length protos)
          ~sites:n ~votes ()
      in
      if not outcome.Sandbox.agreement then
        QCheck.Test.fail_reportf
          "participants of a cross-shard txn disagreed (n=%d crash=%d@%d)" n
          crash after;
      (* Validity: a commit requires unanimous yes votes. *)
      (match
         List.find_opt
           (fun (_, d) -> d = Rt_commit.Protocol.Commit)
           outcome.Sandbox.decisions
       with
      | Some _ when not (Array.for_all Fun.id votes) ->
          QCheck.Test.fail_reportf "committed despite a no vote"
      | _ -> ());
      true)

(* --- cluster-level property ------------------------------------------ *)

(* A real sharded cluster, a transaction writing one key in each shard,
   and a replica crashed at a random instant mid-protocol then recovered:
   after quiescence each key is uniform across its shard's replicas and
   either both shards installed the writes or neither did. *)
let prop_cluster_all_or_nothing =
  QCheck.Test.make ~name:"cluster cross-shard all-or-nothing" ~count:40
    QCheck.(
      quad (int_range 0 9999) (int_range 0 4) (int_range 0 4)
        (int_range 0 2000))
    (fun (seed, origin, crash_site, crash_us) ->
      let config, placement = sharded_config ~seed () in
      let cluster = Cluster.create config in
      let engine = Cluster.engine cluster in
      let va = Printf.sprintf "av%d" seed and vb = Printf.sprintf "bv%d" seed in
      let outcome = ref None in
      Cluster.submit cluster ~site:origin
        ~ops:[ Mix.Write ("a", va); Mix.Write ("b", vb) ]
        ~k:(fun o -> outcome := Some o);
      ignore
        (Engine.schedule_at engine (Time.us crash_us) (fun () ->
             Cluster.crash_site cluster crash_site));
      ignore
        (Engine.schedule_at engine (Time.ms 100) (fun () ->
             Cluster.recover_site cluster crash_site));
      run_for cluster (Time.sec 3);
      let a = uniform_at cluster placement "a" in
      let b = uniform_at cluster placement "b" in
      (match (a, b) with
      | Some _, None | None, Some _ ->
          QCheck.Test.fail_reportf
            "split write: a=%s b=%s (origin=%d crash=%d@%dus)"
            (Option.value a ~default:"-")
            (Option.value b ~default:"-")
            origin crash_site crash_us
      | _ -> ());
      (* When the coordinator survived to report, the stores must match
         the reported outcome. *)
      (match !outcome with
      | Some Site.Committed when a <> Some va || b <> Some vb ->
          QCheck.Test.fail_reportf "reported commit but writes missing"
      | Some (Site.Aborted _) when a <> None || b <> None ->
          QCheck.Test.fail_reportf "reported abort but writes installed"
      | _ -> ());
      true)

(* --- isolated-shard regression ---------------------------------------- *)

let test_isolated_shard_aborts_cross_shard () =
  (* Spread layout over 6 sites: shard 0 lives on {0,1,2}, shard 1 on
     {3,4,5} — disjoint islands, so isolating shard 1 severs every
     cross-shard transaction coordinated on the other side. *)
  let config, placement =
    sharded_config ~sites:6 ~layout:Placement.Spread ~seed:11 ()
  in
  let cluster = Cluster.create config in
  Failure.isolate_shard cluster ~shard:1;
  (* Let the failure detector notice the partition before submitting. *)
  run_for cluster (Time.sec 2);
  let xshard = ref None and local = ref None in
  Cluster.submit cluster ~site:0
    ~ops:[ Mix.Write ("a", "x1"); Mix.Write ("b", "x2") ]
    ~k:(fun o -> xshard := Some o);
  run_for cluster (Time.sec 5);
  (match !xshard with
  | Some (Site.Aborted _) -> ()
  | Some Site.Committed ->
      Alcotest.fail "cross-shard txn committed across the partition"
  | None -> Alcotest.fail "cross-shard txn never resolved");
  (* No split-brain: neither side installed either write. *)
  Alcotest.(check (option string)) "a absent" None
    (uniform_at cluster placement "a");
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        (Printf.sprintf "b absent at %d" s)
        None (value_at cluster s "b"))
    (Placement.replicas_of_key placement "b");
  (* Shard-local work on the reachable side still commits. *)
  Cluster.submit cluster ~site:1
    ~ops:[ Mix.Write ("a", "solo") ]
    ~k:(fun o -> local := Some o);
  run_for cluster (Time.sec 3);
  (match !local with
  | Some Site.Committed -> ()
  | Some (Site.Aborted r) ->
      Alcotest.failf "shard-local txn aborted during partition (%s)"
        (Site.abort_reason_label r)
  | None -> Alcotest.fail "shard-local txn never resolved");
  (* Heal: cross-shard transactions flow again and the stores converge. *)
  Cluster.heal cluster;
  run_for cluster (Time.sec 2);
  let healed = ref None in
  Cluster.submit cluster ~site:0
    ~ops:[ Mix.Write ("a", "h1"); Mix.Write ("b", "h2") ]
    ~k:(fun o -> healed := Some o);
  run_for cluster (Time.sec 3);
  (match !healed with
  | Some Site.Committed -> ()
  | _ -> Alcotest.fail "cross-shard txn failed after heal");
  Alcotest.(check (option string)) "a healed" (Some "h1")
    (uniform_at cluster placement "a");
  Alcotest.(check (option string)) "b healed" (Some "h2")
    (uniform_at cluster placement "b");
  Alcotest.(check bool) "converged" true (Cluster.converged cluster)

let () =
  Alcotest.run "xshard"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_union_participants_agree;
          QCheck_alcotest.to_alcotest prop_cluster_all_or_nothing;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "isolated shard aborts cross-shard" `Quick
            test_isolated_shard_aborts_cross_shard;
        ] );
    ]
