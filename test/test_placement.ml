(* Tests for the placement layer: key→shard maps, shard→replica-set
   layouts, the degenerate full-replication case, and the Config.validate
   rejections that guard it all. *)

open Rt_placement
module Config = Rt_core.Config
module Time = Rt_sim.Time

let ids n = List.init n (fun i -> i)

(* --- Shard_map ------------------------------------------------------ *)

let test_hash_map () =
  let m = Shard_map.hash ~shards:4 in
  Alcotest.(check int) "shard count" 4 (Shard_map.shards m);
  (* Deterministic: same key, same shard, every call. *)
  let s = Shard_map.shard_of m "k000042" in
  Alcotest.(check int) "stable" s (Shard_map.shard_of m "k000042");
  Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
  (* All shards reachable over a modest keyspace (FNV spreads). *)
  let hit = Array.make 4 false in
  for i = 0 to 199 do
    hit.(Shard_map.shard_of m (Rt_workload.Mix.key_of i)) <- true
  done;
  Alcotest.(check bool) "all shards hit" true (Array.for_all Fun.id hit);
  Alcotest.(check int) "single shard degenerate" 0
    (Shard_map.shard_of (Shard_map.hash ~shards:1) "anything")

let test_range_map () =
  let m = Shard_map.range ~boundaries:[ "g"; "n" ] in
  Alcotest.(check int) "3 shards from 2 boundaries" 3 (Shard_map.shards m);
  Alcotest.(check int) "below first" 0 (Shard_map.shard_of m "apple");
  Alcotest.(check int) "at boundary" 1 (Shard_map.shard_of m "g");
  Alcotest.(check int) "between" 1 (Shard_map.shard_of m "house");
  Alcotest.(check int) "top shard" 2 (Shard_map.shard_of m "zebra")

let test_map_rejections () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Shard_map.hash: shards must be positive") (fun () ->
      ignore (Shard_map.hash ~shards:0));
  Alcotest.check_raises "unordered boundaries"
    (Invalid_argument "Shard_map.range: boundaries must be strictly increasing")
    (fun () -> ignore (Shard_map.range ~boundaries:[ "n"; "g" ]));
  Alcotest.check_raises "duplicate boundaries"
    (Invalid_argument "Shard_map.range: boundaries must be strictly increasing")
    (fun () -> ignore (Shard_map.range ~boundaries:[ "g"; "g" ]))

(* --- Placement ------------------------------------------------------ *)

let test_round_robin_layout () =
  let p =
    Placement.create ~map:(Shard_map.range ~boundaries:[ "b" ]) ~sites:5
      ~degree:3 ()
  in
  Alcotest.(check (list int)) "shard 0 replicas" [ 0; 1; 2 ]
    (Placement.replicas p ~shard:0);
  Alcotest.(check (list int)) "shard 1 replicas" [ 1; 2; 3 ]
    (Placement.replicas p ~shard:1);
  Alcotest.(check (list int)) "key routing" [ 0; 1; 2 ]
    (Placement.replicas_of_key p "a");
  Alcotest.(check bool) "site 4 owns nothing" true
    (Placement.shards_of_site p 4 = []);
  Alcotest.(check bool) "not full" false (Placement.is_full p);
  Alcotest.(check bool) "site 1 owns a" true
    (Placement.owns_key p ~site:1 "a");
  Alcotest.(check bool) "site 3 does not own a" false
    (Placement.owns_key p ~site:3 "a");
  (* co_replicas: sites sharing at least one shard, self excluded. *)
  Alcotest.(check (list int)) "co-replicas of 0" [ 1; 2 ]
    (Placement.co_replicas p ~site:0);
  Alcotest.(check (list int)) "co-replicas of 1" [ 0; 2; 3 ]
    (Placement.co_replicas p ~site:1);
  Alcotest.(check (list int)) "co-replicas of 4" []
    (Placement.co_replicas p ~site:4)

let test_spread_layout () =
  let p =
    Placement.create ~layout:Placement.Spread
      ~map:(Shard_map.range ~boundaries:[ "b" ])
      ~sites:6 ~degree:3 ()
  in
  Alcotest.(check (list int)) "disjoint triple 0" [ 0; 1; 2 ]
    (Placement.replicas p ~shard:0);
  Alcotest.(check (list int)) "disjoint triple 1" [ 3; 4; 5 ]
    (Placement.replicas p ~shard:1)

let test_full_degenerate () =
  let p = Placement.full ~sites:4 in
  Alcotest.(check bool) "is full" true (Placement.is_full p);
  Alcotest.(check int) "one shard" 1 (Placement.shards p);
  Alcotest.(check (list int)) "every site replicates it" (ids 4)
    (Placement.replicas p ~shard:0);
  Alcotest.(check (list int)) "co-replicas = all others" [ 0; 1; 3 ]
    (Placement.co_replicas p ~site:2);
  Alcotest.(check bool) "owns everything" true
    (List.for_all (fun s -> Placement.owns_key p ~site:s "x") (ids 4))

let test_placement_rejections () =
  let map = Shard_map.hash ~shards:2 in
  Alcotest.check_raises "degree 0"
    (Invalid_argument "Placement.create: replication degree must be at least 1")
    (fun () -> ignore (Placement.create ~map ~sites:3 ~degree:0 ()));
  Alcotest.check_raises "degree > sites"
    (Invalid_argument "Placement.create: replication degree exceeds site count")
    (fun () -> ignore (Placement.create ~map ~sites:3 ~degree:4 ()));
  Alcotest.check_raises "no sites"
    (Invalid_argument "Placement.create: sites must be positive") (fun () ->
      ignore (Placement.create ~map ~sites:0 ~degree:1 ()))

(* Every shard gets exactly [degree] distinct replicas, all in range. *)
let prop_replica_sets_well_formed =
  QCheck.Test.make ~name:"replica sets well formed" ~count:300
    QCheck.(
      quad (int_range 1 12) (int_range 1 12) (int_range 1 8) bool)
    (fun (sites, degree, shards, spread) ->
      QCheck.assume (degree <= sites);
      let layout =
        if spread then Placement.Spread else Placement.Round_robin
      in
      let p =
        Placement.create ~layout ~map:(Shard_map.hash ~shards) ~sites ~degree
          ()
      in
      List.for_all
        (fun shard ->
          let rs = Placement.replicas p ~shard in
          List.length rs = degree
          && List.sort_uniq Int.compare rs = rs
          && List.for_all (fun s -> s >= 0 && s < sites) rs)
        (List.init shards Fun.id))

(* shard_of_key and owns_key agree with replica membership. *)
let prop_ownership_consistent =
  QCheck.Test.make ~name:"ownership matches replica sets" ~count:300
    QCheck.(triple (int_range 1 9) (int_range 1 6) small_printable_string)
    (fun (sites, shards, key) ->
      let degree = 1 + (shards mod sites) in
      let p =
        Placement.create ~map:(Shard_map.hash ~shards) ~sites ~degree ()
      in
      let rs = Placement.replicas_of_key p key in
      List.for_all
        (fun site ->
          Placement.owns_key p ~site key = List.mem site rs)
        (ids sites))

(* --- Config.validate ------------------------------------------------ *)

let invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

let test_validate_rejections () =
  let base = Config.default ~sites:3 () in
  let check name pred cfg =
    Alcotest.(check bool) name pred (invalid (fun () -> Config.validate cfg))
  in
  check "valid default passes" false base;
  check "non-positive sites" true { base with sites = 0 };
  check "negative sites" true { base with sites = -2 };
  check "placement site mismatch" true
    { base with placement = Some (Placement.full ~sites:5) };
  check "degree beyond sites is unconstructible -> site mismatch" true
    {
      base with
      placement =
        Some
          (Placement.create ~map:(Shard_map.hash ~shards:2) ~sites:5 ~degree:5
             ());
    };
  check "negative force latency" true
    { base with force_latency = Time.us (-1) };
  check "zero heartbeat interval" true
    { base with heartbeat_interval = Time.zero };
  check "negative checkpoint interval" true { base with checkpoint_every = -1 };
  check "primary out of range" true
    { base with replica_control = Rt_replica.Replica_control.primary 7 };
  check "quorum thresholds below 1" true
    {
      base with
      commit_protocol =
        Config.Quorum_commit { commit_quorum = Some 0; abort_quorum = Some 3 };
    };
  check "quorum thresholds violate intersection" true
    {
      base with
      commit_protocol =
        Config.Quorum_commit { commit_quorum = Some 1; abort_quorum = Some 1 };
    };
  (* A matching sharded placement passes. *)
  check "valid sharded placement passes" false
    {
      base with
      placement =
        Some
          (Placement.create ~map:(Shard_map.hash ~shards:2) ~sites:3 ~degree:2
             ());
    }

let () =
  Alcotest.run "placement"
    [
      ( "shard_map",
        [
          Alcotest.test_case "hash strategy" `Quick test_hash_map;
          Alcotest.test_case "range strategy" `Quick test_range_map;
          Alcotest.test_case "rejections" `Quick test_map_rejections;
        ] );
      ( "placement",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin_layout;
          Alcotest.test_case "spread" `Quick test_spread_layout;
          Alcotest.test_case "full degenerate" `Quick test_full_degenerate;
          Alcotest.test_case "rejections" `Quick test_placement_rejections;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_replica_sets_well_formed;
          QCheck_alcotest.to_alcotest prop_ownership_consistent;
        ] );
      ( "config",
        [
          Alcotest.test_case "validate rejections" `Quick
            test_validate_rejections;
        ] );
    ]
