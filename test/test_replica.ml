(* Tests for replica-control planners: plan contents under full and
   degraded up-sets, availability boundaries, and protocol properties. *)

open Rt_replica
module RC = Replica_control

let all_up _ = true
let down these s = not (List.mem s these)
let ids n = List.init n (fun i -> i)

let test_rowa_plans () =
  let rc = RC.rowa in
  Alcotest.(check (option (list int))) "read local" (Some [ 1 ])
    (RC.read_plan rc ~self:1 ~up:all_up ~replicas:(ids 3));
  Alcotest.(check (option (list int))) "write all" (Some [ 0; 1; 2 ])
    (RC.write_plan rc ~self:1 ~up:all_up ~replicas:(ids 3));
  Alcotest.(check (option (list int))) "write unavailable when one down" None
    (RC.write_plan rc ~self:1 ~up:(down [ 2 ]) ~replicas:(ids 3));
  Alcotest.(check (option (list int))) "read falls over to another up site"
    (Some [ 0 ])
    (RC.read_plan rc ~self:1 ~up:(down [ 1 ]) ~replicas:(ids 3));
  Alcotest.(check bool) "does not trust the failure detector" false
    (RC.trusts_failure_detector rc)

let test_available_copies_plans () =
  let rc = RC.available_copies in
  Alcotest.(check (option (list int))) "write to up copies" (Some [ 0; 2 ])
    (RC.write_plan rc ~self:0 ~up:(down [ 1 ]) ~replicas:(ids 3));
  Alcotest.(check (option (list int))) "write needs one copy" None
    (RC.write_plan rc ~self:0 ~up:(down [ 0; 1; 2 ]) ~replicas:(ids 3));
  Alcotest.(check bool) "needs catch-up on recovery" true
    (RC.needs_catchup_on_recovery rc);
  Alcotest.(check bool) "trusts the failure detector" true
    (RC.trusts_failure_detector rc)

let test_quorum_plans () =
  let rc = RC.majority ~sites:5 in
  (match RC.read_plan rc ~self:3 ~up:all_up ~replicas:(ids 5) with
  | Some plan ->
      Alcotest.(check int) "majority read size" 3 (List.length plan);
      Alcotest.(check bool) "prefers self" true (List.mem 3 plan)
  | None -> Alcotest.fail "plan expected");
  (match RC.write_plan rc ~self:4 ~up:(down [ 0; 1 ]) ~replicas:(ids 5) with
  | Some plan ->
      Alcotest.(check int) "write quorum from survivors" 3 (List.length plan);
      Alcotest.(check bool) "only up sites" true
        (List.for_all (fun s -> s >= 2) plan)
  | None -> Alcotest.fail "plan expected");
  Alcotest.(check (option (list int))) "minority cannot write" None
    (RC.write_plan rc ~self:0 ~up:(down [ 2; 3; 4 ]) ~replicas:(ids 5));
  Alcotest.(check bool) "needs version resolution" true
    (RC.read_needs_version_resolution rc);
  Alcotest.(check bool) "does not trust the failure detector" false
    (RC.trusts_failure_detector rc)

let test_primary_plans () =
  let rc = RC.primary 1 in
  Alcotest.(check (option (list int))) "reads at primary" (Some [ 1 ])
    (RC.read_plan rc ~self:0 ~up:all_up ~replicas:(ids 3));
  Alcotest.(check (option (list int))) "writes at primary + up backups"
    (Some [ 0; 1; 2 ])
    (RC.write_plan rc ~self:0 ~up:all_up ~replicas:(ids 3));
  (* Succession: with the primary down, the lowest up site acts. *)
  Alcotest.(check (option (list int))) "succession to lowest up site"
    (Some [ 0 ])
    (RC.read_plan rc ~self:0 ~up:(down [ 1 ]) ~replicas:(ids 3));
  Alcotest.(check (option (list int))) "no site up = unavailable" None
    (RC.read_plan rc ~self:0 ~up:(down [ 0; 1; 2 ]) ~replicas:(ids 3));
  Alcotest.(check bool) "trusts the failure detector" true
    (RC.trusts_failure_detector rc)

let test_weighted_quorum_plan () =
  let rc = RC.Quorum (Rt_quorum.Votes.make ~votes:[| 3; 1; 1 |] ~read_quorum:3 ~write_quorum:3) in
  (match RC.read_plan rc ~self:1 ~up:all_up ~replicas:(ids 3) with
  | Some plan ->
      (* The heavy site alone satisfies the quorum; greedy picks it. *)
      Alcotest.(check (list int)) "heavy site suffices" [ 0 ] plan
  | None -> Alcotest.fail "plan expected");
  match RC.write_plan rc ~self:1 ~up:(down [ 0 ]) ~replicas:(ids 3) with
  | Some _ -> Alcotest.fail "cannot write without the heavy site"
  | None -> ()

(* Plans over a replica subset (a shard's replica set under partial
   replication) stay inside the subset. *)
let test_subset_plans () =
  let replicas = [ 1; 3; 4 ] in
  Alcotest.(check (option (list int))) "rowa reads a replica" (Some [ 1 ])
    (RC.read_plan RC.rowa ~self:1 ~up:all_up ~replicas);
  Alcotest.(check (option (list int))) "rowa writes all replicas only"
    (Some [ 1; 3; 4 ])
    (RC.write_plan RC.rowa ~self:0 ~up:all_up ~replicas);
  Alcotest.(check (option (list int)))
    "non-replica coordinator reads remotely" (Some [ 1 ])
    (RC.read_plan RC.rowa ~self:0 ~up:all_up ~replicas);
  Alcotest.(check (option (list int))) "available copies skips down replica"
    (Some [ 1; 4 ])
    (RC.write_plan RC.available_copies ~self:0 ~up:(down [ 3 ]) ~replicas);
  (* Majority over the 3-replica subset: 2 of {1;3;4}. *)
  let rc = RC.majority ~sites:5 in
  (match RC.read_plan rc ~self:3 ~up:all_up ~replicas with
  | Some plan ->
      Alcotest.(check int) "subset majority size" 2 (List.length plan);
      Alcotest.(check bool) "inside the subset" true
        (List.for_all (fun s -> List.mem s replicas) plan)
  | None -> Alcotest.fail "plan expected");
  Alcotest.(check (option (list int))) "subset minority cannot write" None
    (RC.write_plan rc ~self:1 ~up:(down [ 3; 4 ]) ~replicas)

(* Read/write plans must always intersect for quorum schemes — on every
   up-set where both exist. *)
let prop_quorum_plans_intersect =
  QCheck.Test.make ~name:"quorum read/write plans intersect" ~count:300
    QCheck.(pair (int_range 1 7) (int_range 0 127))
    (fun (sites, up_mask) ->
      let rc = RC.majority ~sites in
      let up s = up_mask land (1 lsl s) <> 0 in
      match
        ( RC.read_plan rc ~self:0 ~up ~replicas:(ids sites),
          RC.write_plan rc ~self:0 ~up ~replicas:(ids sites) )
      with
      | Some r, Some w -> List.exists (fun s -> List.mem s w) r
      | _ -> true)

(* Plans only ever name up sites. *)
let prop_plans_respect_up_set =
  QCheck.Test.make ~name:"plans contain only up sites" ~count:300
    QCheck.(triple (int_range 1 6) (int_range 0 63) (int_range 0 3))
    (fun (sites, up_mask, which) ->
      let rc =
        match which with
        | 0 -> RC.rowa
        | 1 -> RC.available_copies
        | 2 -> RC.majority ~sites
        | _ -> RC.primary 0
      in
      let up s = up_mask land (1 lsl s) <> 0 in
      let check = function
        | Some plan -> List.for_all up plan
        | None -> true
      in
      check (RC.read_plan rc ~self:0 ~up ~replicas:(ids sites))
      && check (RC.write_plan rc ~self:0 ~up ~replicas:(ids sites)))

let () =
  Alcotest.run "replica"
    [
      ( "plans",
        [
          Alcotest.test_case "rowa" `Quick test_rowa_plans;
          Alcotest.test_case "available copies" `Quick
            test_available_copies_plans;
          Alcotest.test_case "majority quorum" `Quick test_quorum_plans;
          Alcotest.test_case "primary copy" `Quick test_primary_plans;
          Alcotest.test_case "weighted quorum" `Quick test_weighted_quorum_plan;
          Alcotest.test_case "shard replica subsets" `Quick test_subset_plans;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_quorum_plans_intersect;
          QCheck_alcotest.to_alcotest prop_plans_respect_up_set;
        ] );
    ]
