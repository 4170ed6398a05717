(* Tests for the local concurrency-control schemes: per-scheme behaviour,
   the serializability oracle, and randomized workloads through the
   workbench. *)

open Rt_sim
open Rt_types
open Rt_cc
module Kv = Rt_storage.Kv

let txn seq = Ids.Txn_id.make ~origin:0 ~seq ~start_ts:(Time.us seq)

let setup () =
  let kv = Kv.create () in
  Kv.set kv ~key:"a" ~value:"a0" ~version:1;
  Kv.set kv ~key:"b" ~value:"b0" ~version:1;
  kv

(* --- 2PL --------------------------------------------------------------- *)

let test_2pl_read_write_commit () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Two_pl kv in
  let t1 = txn 1 in
  Workbench.begin_txn st t1;
  let read_value = ref None in
  Workbench.read st ~txn:t1 ~key:"a" ~k:(function
    | `Value v -> read_value := v
    | `Abort -> Alcotest.fail "unexpected abort");
  Alcotest.(check (option string)) "read committed value" (Some "a0") !read_value;
  Workbench.write st ~txn:t1 ~key:"a" ~value:"a1" ~k:(function
    | `Ok -> ()
    | `Abort -> Alcotest.fail "write refused");
  (* Read-your-writes. *)
  Workbench.read st ~txn:t1 ~key:"a" ~k:(function
    | `Value v -> Alcotest.(check (option string)) "own write" (Some "a1") v
    | `Abort -> Alcotest.fail "unexpected abort");
  (* Buffered: not visible in the store yet. *)
  Alcotest.(check int) "store unchanged before commit" 1 (Kv.version kv "a");
  Workbench.commit st ~txn:t1 ~k:(function
    | `Committed -> ()
    | `Aborted -> Alcotest.fail "commit failed");
  Alcotest.(check int) "version bumped" 2 (Kv.version kv "a")

let test_2pl_blocks_then_grants () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Two_pl kv in
  let t1 = txn 1 and t2 = txn 2 in
  Workbench.begin_txn st t1;
  Workbench.begin_txn st t2;
  Workbench.write st ~txn:t1 ~key:"a" ~value:"x" ~k:(fun _ -> ());
  let t2_read = ref None in
  Workbench.read st ~txn:t2 ~key:"a" ~k:(function
    | `Value v -> t2_read := Some v
    | `Abort -> Alcotest.fail "t2 aborted");
  Alcotest.(check bool) "t2 blocked" true (!t2_read = None);
  Workbench.commit st ~txn:t1 ~k:(fun _ -> ());
  (* Release grants t2; it sees t1's committed value. *)
  Alcotest.(check (option (option string))) "t2 unblocked with new value"
    (Some (Some "x")) !t2_read

let test_2pl_deadlock_victim () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Two_pl kv in
  let t1 = txn 1 and t2 = txn 2 in
  Workbench.begin_txn st t1;
  Workbench.begin_txn st t2;
  Workbench.write st ~txn:t1 ~key:"a" ~value:"1" ~k:(fun _ -> ());
  Workbench.write st ~txn:t2 ~key:"b" ~value:"2" ~k:(fun _ -> ());
  let t1_result = ref `Pending and t2_result = ref `Pending in
  Workbench.write st ~txn:t1 ~key:"b" ~value:"1" ~k:(function
    | `Ok -> t1_result := `Ok
    | `Abort -> t1_result := `Abort);
  (* Closing the cycle aborts the youngest (t2) immediately. *)
  Workbench.write st ~txn:t2 ~key:"a" ~value:"2" ~k:(function
    | `Ok -> t2_result := `Ok
    | `Abort -> t2_result := `Abort);
  Alcotest.(check bool) "t2 was victim" true (!t2_result = `Abort);
  Alcotest.(check bool) "t1 got the lock" true (!t1_result = `Ok);
  Alcotest.(check int) "one deadlock abort" 1
    (Workbench.stats st).deadlock_aborts

(* --- TO ---------------------------------------------------------------- *)

let test_to_rejects_late_read () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Timestamp kv in
  let old_txn = txn 1 and new_txn = txn 2 in
  Workbench.begin_txn st old_txn;
  Workbench.begin_txn st new_txn;
  (* Newer transaction writes and commits; the older one's read must now
     be rejected (it would read "from the future"). *)
  Workbench.write st ~txn:new_txn ~key:"a" ~value:"new" ~k:(fun _ -> ());
  Workbench.commit st ~txn:new_txn ~k:(fun _ -> ());
  let result = ref `Pending in
  Workbench.read st ~txn:old_txn ~key:"a" ~k:(function
    | `Value _ -> result := `Ok
    | `Abort -> result := `Abort);
  Alcotest.(check bool) "old read rejected" true (!result = `Abort);
  Alcotest.(check int) "order abort counted" 1
    (Workbench.stats st).order_aborts

let test_to_rejects_late_write () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Timestamp kv in
  let old_txn = txn 1 and new_txn = txn 2 in
  Workbench.begin_txn st old_txn;
  Workbench.begin_txn st new_txn;
  let ok = ref false in
  Workbench.read st ~txn:new_txn ~key:"a" ~k:(function
    | `Value _ -> ok := true
    | `Abort -> ());
  Alcotest.(check bool) "new read fine" true !ok;
  let result = ref `Pending in
  Workbench.write st ~txn:old_txn ~key:"a" ~value:"old" ~k:(function
    | `Ok -> result := `Ok
    | `Abort -> result := `Abort);
  Alcotest.(check bool) "old write after newer read rejected" true
    (!result = `Abort)

let test_to_thomas_write_rule () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Timestamp kv in
  let t1 = txn 1 and t2 = txn 2 in
  Workbench.begin_txn st t1;
  Workbench.begin_txn st t2;
  Workbench.write st ~txn:t1 ~key:"a" ~value:"t1" ~k:(fun _ -> ());
  Workbench.write st ~txn:t2 ~key:"a" ~value:"t2" ~k:(fun _ -> ());
  (* Newer commits first... *)
  Workbench.commit st ~txn:t2 ~k:(fun _ -> ());
  (* ...then the older commit's write is skipped, not applied backwards. *)
  Workbench.commit st ~txn:t1 ~k:(function
    | `Committed -> ()
    | `Aborted -> Alcotest.fail "TWR commit should succeed");
  Alcotest.(check (option string)) "newest value retained" (Some "t2")
    (Option.map (fun (i : Kv.item) -> i.value) (Kv.get kv "a"))

let test_to_reads_own_write () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Timestamp kv in
  let t1 = txn 1 in
  Workbench.begin_txn st t1;
  Workbench.write st ~txn:t1 ~key:"a" ~value:"mine" ~k:(fun _ -> ());
  let seen = ref None in
  Workbench.read st ~txn:t1 ~key:"a" ~k:(function
    | `Value v -> seen := v
    | `Abort -> Alcotest.fail "own read refused");
  Alcotest.(check (option string)) "own buffered write" (Some "mine") !seen;
  Alcotest.(check int) "store unchanged before commit" 1 (Kv.version kv "a")

(* --- OCC --------------------------------------------------------------- *)

let test_occ_validation_failure () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Optimistic kv in
  let t1 = txn 1 and t2 = txn 2 in
  Workbench.begin_txn st t1;
  Workbench.begin_txn st t2;
  Workbench.read st ~txn:t1 ~key:"a" ~k:(fun _ -> ());
  Workbench.read st ~txn:t2 ~key:"a" ~k:(fun _ -> ());
  Workbench.write st ~txn:t1 ~key:"a" ~value:"t1" ~k:(fun _ -> ());
  Workbench.write st ~txn:t2 ~key:"a" ~value:"t2" ~k:(fun _ -> ());
  let r1 = ref `Pending and r2 = ref `Pending in
  Workbench.commit st ~txn:t1 ~k:(fun o -> r1 := (o :> [ `Committed | `Aborted | `Pending ]));
  Workbench.commit st ~txn:t2 ~k:(fun o -> r2 := (o :> [ `Committed | `Aborted | `Pending ]));
  Alcotest.(check bool) "first committer wins" true (!r1 = `Committed);
  Alcotest.(check bool) "second validation fails" true (!r2 = `Aborted);
  Alcotest.(check int) "validation abort counted" 1
    (Workbench.stats st).validation_aborts

let test_occ_disjoint_commits () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Optimistic kv in
  let t1 = txn 1 and t2 = txn 2 in
  Workbench.begin_txn st t1;
  Workbench.begin_txn st t2;
  Workbench.write st ~txn:t1 ~key:"a" ~value:"1" ~k:(fun _ -> ());
  Workbench.write st ~txn:t2 ~key:"b" ~value:"2" ~k:(fun _ -> ());
  let ok = ref 0 in
  Workbench.commit st ~txn:t1 ~k:(function `Committed -> incr ok | _ -> ());
  Workbench.commit st ~txn:t2 ~k:(function `Committed -> incr ok | _ -> ());
  Alcotest.(check int) "both committed" 2 !ok

let test_occ_reads_own_write () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Optimistic kv in
  let t1 = txn 1 in
  Workbench.begin_txn st t1;
  Workbench.write st ~txn:t1 ~key:"a" ~value:"mine" ~k:(fun _ -> ());
  let seen = ref None in
  Workbench.read st ~txn:t1 ~key:"a" ~k:(function
    | `Value v -> seen := v
    | `Abort -> Alcotest.fail "own read refused");
  Alcotest.(check (option string)) "own buffered write" (Some "mine") !seen;
  Alcotest.(check int) "store unchanged before commit" 1 (Kv.version kv "a")

let test_occ_blind_writers () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Optimistic kv in
  let t1 = txn 1 and t2 = txn 2 in
  Workbench.begin_txn st t1;
  Workbench.begin_txn st t2;
  (* Neither reads the key: the overwritten version is what validates. *)
  Workbench.write st ~txn:t1 ~key:"a" ~value:"t1" ~k:(fun _ -> ());
  Workbench.write st ~txn:t2 ~key:"a" ~value:"t2" ~k:(fun _ -> ());
  let r1 = ref `Pending and r2 = ref `Pending in
  let outcome r = function `Committed -> r := `Ok | `Aborted -> r := `Abort in
  Workbench.commit st ~txn:t1 ~k:(outcome r1);
  Workbench.commit st ~txn:t2 ~k:(outcome r2);
  Alcotest.(check bool) "first committer wins" true (!r1 = `Ok);
  Alcotest.(check bool) "second validation fails" true (!r2 = `Abort);
  Alcotest.(check int) "validation abort counted" 1
    (Workbench.stats st).validation_aborts;
  Alcotest.(check (option string)) "first writer's value" (Some "t1")
    (Option.map (fun (i : Kv.item) -> i.value) (Kv.get kv "a"))

(* --- History oracle ----------------------------------------------------- *)

let test_history_detects_nonserializable () =
  let h = History.create () in
  let t1 = txn 1 and t2 = txn 2 in
  (* Classic lost-update cycle: each reads version 1 then overwrites the
     other's write. *)
  History.read h t1 ~key:"a" ~version:1;
  History.read h t2 ~key:"a" ~version:1;
  History.write h t1 ~key:"a" ~version:2;
  History.write h t2 ~key:"a" ~version:3;
  History.commit h t1;
  History.commit h t2;
  Alcotest.(check bool) "cycle detected" false (History.serializable h)

let test_history_serial_ok () =
  let h = History.create () in
  let t1 = txn 1 and t2 = txn 2 in
  History.read h t1 ~key:"a" ~version:1;
  History.write h t1 ~key:"a" ~version:2;
  History.commit h t1;
  History.read h t2 ~key:"a" ~version:2;
  History.write h t2 ~key:"a" ~version:3;
  History.commit h t2;
  Alcotest.(check bool) "serial history fine" true (History.serializable h)

let test_history_ignores_aborted () =
  let h = History.create () in
  let t1 = txn 1 and t2 = txn 2 in
  History.read h t1 ~key:"a" ~version:1;
  History.read h t2 ~key:"a" ~version:1;
  History.write h t1 ~key:"a" ~version:2;
  History.write h t2 ~key:"a" ~version:3;
  History.commit h t1;
  History.abort h t2;
  Alcotest.(check bool) "aborted txn not part of graph" true
    (History.serializable h)

(* --- Workbench: every scheme is serializable under random load ---------- *)

let workbench_case scheme =
  Alcotest.test_case
    (Printf.sprintf "%s: random workload is serializable"
       (Workbench.scheme_name scheme))
    `Quick
    (fun () ->
      let mix =
        { Rt_workload.Mix.default with keys = 20; ops_per_txn = 3;
          read_fraction = 0.5; theta = 0.9 }
      in
      let r =
        Workbench.run ~seed:42 ~check_history:true ~scheme ~clients:8 ~mix
          ~duration:(Time.ms 15) ()
      in
      Alcotest.(check bool) "made progress" true (r.committed > 10);
      Alcotest.(check (option bool)) "serializable" (Some true) r.serializable)

let prop_schemes_serializable =
  QCheck.Test.make ~name:"all schemes serializable across seeds" ~count:8
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, clients) ->
      List.for_all
        (fun scheme ->
          let mix =
            { Rt_workload.Mix.default with keys = 10; ops_per_txn = 3;
              theta = 1.0 }
          in
          let r =
            Workbench.run ~seed ~check_history:true ~scheme ~clients ~mix
              ~duration:(Time.ms 8) ()
          in
          r.serializable = Some true)
        Workbench.all_schemes)

let test_contention_hurts_occ_and_to () =
  (* Under high skew, the restart-based schemes abort much more than they
     do under uniform access — the shape experiment T6/F3 reports. *)
  let base = { Rt_workload.Mix.default with keys = 100; ops_per_txn = 4 } in
  let run scheme theta =
    (Workbench.run ~seed:7 ~scheme ~clients:8
       ~mix:{ base with theta } ~duration:(Time.ms 40) ())
      .abort_rate
  in
  List.iter
    (fun scheme ->
      let uniform = run scheme 0.0 and hot = run scheme 1.2 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: skew increases aborts"
           (Workbench.scheme_name scheme))
        true
        (hot >= uniform))
    [ Workbench.Timestamp; Workbench.Optimistic ]


(* --- deadlock prevention policies -------------------------------------- *)

let test_wound_wait_older_wounds () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Two_pl_wound_wait kv in
  let old_t = txn 1 and young_t = txn 2 in
  Workbench.begin_txn st young_t;
  Workbench.begin_txn st old_t;
  (* Young holds the lock... *)
  Workbench.write st ~txn:young_t ~key:"a" ~value:"y" ~k:(fun _ -> ());
  (* ...old wants it: young is wounded and old proceeds. *)
  let old_result = ref `Pending in
  Workbench.write st ~txn:old_t ~key:"a" ~value:"o" ~k:(function
    | `Ok -> old_result := `Ok
    | `Abort -> old_result := `Abort);
  Alcotest.(check bool) "old got the lock" true (!old_result = `Ok);
  Alcotest.(check int) "young was wounded" 1
    (Workbench.stats st).deadlock_aborts;
  (* The wounded transaction is gone; its commit reports aborted. *)
  Workbench.commit st ~txn:young_t ~k:(function
    | `Aborted -> ()
    | `Committed -> Alcotest.fail "wounded txn must not commit")

let test_wound_wait_younger_waits () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Two_pl_wound_wait kv in
  let old_t = txn 1 and young_t = txn 2 in
  Workbench.begin_txn st old_t;
  Workbench.begin_txn st young_t;
  Workbench.write st ~txn:old_t ~key:"a" ~value:"o" ~k:(fun _ -> ());
  let young_result = ref `Pending in
  Workbench.write st ~txn:young_t ~key:"a" ~value:"y" ~k:(function
    | `Ok -> young_result := `Ok
    | `Abort -> young_result := `Abort);
  Alcotest.(check bool) "young waits (not aborted)" true
    (!young_result = `Pending);
  Workbench.commit st ~txn:old_t ~k:(fun _ -> ());
  Alcotest.(check bool) "young granted after release" true
    (!young_result = `Ok)

let test_wait_die_younger_dies () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Two_pl_wait_die kv in
  let old_t = txn 1 and young_t = txn 2 in
  Workbench.begin_txn st old_t;
  Workbench.begin_txn st young_t;
  Workbench.write st ~txn:old_t ~key:"a" ~value:"o" ~k:(fun _ -> ());
  let young_result = ref `Pending in
  Workbench.write st ~txn:young_t ~key:"a" ~value:"y" ~k:(function
    | `Ok -> young_result := `Ok
    | `Abort -> young_result := `Abort);
  Alcotest.(check bool) "young dies immediately" true
    (!young_result = `Abort)

let test_wait_die_older_waits () =
  let kv = setup () in
  let st = Workbench.create ~scheme:Two_pl_wait_die kv in
  let old_t = txn 1 and young_t = txn 2 in
  Workbench.begin_txn st young_t;
  Workbench.begin_txn st old_t;
  Workbench.write st ~txn:young_t ~key:"a" ~value:"y" ~k:(fun _ -> ());
  let old_result = ref `Pending in
  Workbench.write st ~txn:old_t ~key:"a" ~value:"o" ~k:(function
    | `Ok -> old_result := `Ok
    | `Abort -> old_result := `Abort);
  Alcotest.(check bool) "old waits" true (!old_result = `Pending);
  Workbench.commit st ~txn:young_t ~k:(fun _ -> ());
  Alcotest.(check bool) "old granted after young commits" true
    (!old_result = `Ok)

let prop_prevention_policies_serializable =
  QCheck.Test.make
    ~name:"wound-wait and wait-die stay serializable and deadlock-free"
    ~count:10
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, clients) ->
      List.for_all
        (fun scheme ->
          let mix =
            { Rt_workload.Mix.default with keys = 10; ops_per_txn = 3;
              theta = 1.0; read_fraction = 0.3 }
          in
          let r =
            Workbench.run ~seed ~check_history:true ~scheme ~clients ~mix
              ~duration:(Time.ms 8) ()
          in
          r.serializable = Some true && r.committed > 0)
        [ Workbench.Two_pl_wound_wait; Workbench.Two_pl_wait_die ])

let () =
  Alcotest.run "cc"
    [
      ( "2pl",
        [
          Alcotest.test_case "read/write/commit" `Quick
            test_2pl_read_write_commit;
          Alcotest.test_case "blocks then grants" `Quick
            test_2pl_blocks_then_grants;
          Alcotest.test_case "deadlock victim" `Quick test_2pl_deadlock_victim;
        ] );
      ( "to",
        [
          Alcotest.test_case "rejects late read" `Quick test_to_rejects_late_read;
          Alcotest.test_case "rejects late write" `Quick
            test_to_rejects_late_write;
          Alcotest.test_case "thomas write rule" `Quick
            test_to_thomas_write_rule;
          Alcotest.test_case "reads own write" `Quick test_to_reads_own_write;
        ] );
      ( "occ",
        [
          Alcotest.test_case "validation failure" `Quick
            test_occ_validation_failure;
          Alcotest.test_case "disjoint commits" `Quick test_occ_disjoint_commits;
          Alcotest.test_case "reads own write" `Quick test_occ_reads_own_write;
          Alcotest.test_case "blind writers: second fails validation" `Quick
            test_occ_blind_writers;
        ] );
      ( "history",
        [
          Alcotest.test_case "detects non-serializable" `Quick
            test_history_detects_nonserializable;
          Alcotest.test_case "serial ok" `Quick test_history_serial_ok;
          Alcotest.test_case "ignores aborted" `Quick
            test_history_ignores_aborted;
        ] );
      ( "prevention",
        [
          Alcotest.test_case "wound-wait: older wounds" `Quick
            test_wound_wait_older_wounds;
          Alcotest.test_case "wound-wait: younger waits" `Quick
            test_wound_wait_younger_waits;
          Alcotest.test_case "wait-die: younger dies" `Quick
            test_wait_die_younger_dies;
          Alcotest.test_case "wait-die: older waits" `Quick
            test_wait_die_older_waits;
          QCheck_alcotest.to_alcotest prop_prevention_policies_serializable;
        ] );
      ( "workbench",
        List.map workbench_case Workbench.all_schemes
        @ [
            QCheck_alcotest.to_alcotest prop_schemes_serializable;
            Alcotest.test_case "skew increases aborts" `Quick
              test_contention_hurts_occ_and_to;
          ] );
    ]
