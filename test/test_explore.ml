(* Tests for the schedule explorer: canonical-state fingerprinting
   (permuted hash-table insertion orders must hash equal; genuinely
   different state must not) and sleep-set DPOR soundness on toy systems
   small enough to enumerate by hand. *)

open Rt_sim
open Rt_storage
open Rt_explore

(* --- fingerprint canonicalization ------------------------------------- *)

let test_kv_permuted_insertion () =
  let fill kv order =
    List.iter (fun (k, v, ver) -> Kv.set kv ~key:k ~value:v ~version:ver) order
  in
  let a = Kv.create () and b = Kv.create () in
  let rows = [ ("x", "1", 1); ("y", "2", 3); ("z", "3", 2); ("w", "4", 7) ] in
  fill a rows;
  fill b (List.rev rows);
  Alcotest.(check bool) "equal contents" true (Kv.equal a b);
  Alcotest.(check (list (pair string (pair string int))))
    "snapshots identical"
    (List.map (fun (k, i) -> (k, (i.Kv.value, i.Kv.version))) (Kv.snapshot a))
    (List.map (fun (k, i) -> (k, (i.Kv.value, i.Kv.version))) (Kv.snapshot b))

let test_kv_different_values_differ () =
  let a = Kv.create () and b = Kv.create () in
  Kv.set a ~key:"x" ~value:"1" ~version:1;
  Kv.set b ~key:"x" ~value:"1" ~version:2;
  Alcotest.(check bool) "version differs" false (Kv.equal a b)

let test_checkpoint_permuted_store () =
  let snap order =
    let kv = Kv.create () in
    List.iter (fun (k, v) -> Kv.set kv ~key:k ~value:v ~version:1) order;
    let cp = Rt_storage.Checkpoint.create () in
    Rt_storage.Checkpoint.take ~shard_of:(fun k -> String.length k mod 2) cp
      ~kv ~lsn:5;
    Rt_storage.Checkpoint.dump cp
  in
  let rows = [ ("a", "1"); ("bb", "2"); ("c", "3"); ("dd", "4") ] in
  Alcotest.(check string) "dumps equal" (snap rows) (snap (List.rev rows));
  Alcotest.(check bool) "different contents differ" true
    (snap rows <> snap [ ("a", "1") ])

let test_wal_contents_distinguish () =
  let wal_dump records =
    let e = Engine.create () in
    let w = Wal.create e ~force_latency:(Time.us 100) () in
    List.iter (fun r -> ignore (Wal.append w r)) records;
    Wal.dump w ~record:Fun.id
  in
  Alcotest.(check string) "same records hash equal"
    (wal_dump [ "r1"; "r2" ])
    (wal_dump [ "r1"; "r2" ]);
  Alcotest.(check bool) "volatile suffix differs" true
    (wal_dump [ "r1"; "r2" ] <> wal_dump [ "r1"; "r3" ]);
  let forced =
    let e = Engine.create () in
    let w = Wal.create e ~force_latency:(Time.us 100) () in
    ignore (Wal.append w "r1");
    ignore (Wal.append w "r2");
    Wal.force w (fun () -> ());
    Engine.run e;
    Wal.dump w ~record:Fun.id
  in
  Alcotest.(check bool) "durability state differs" true
    (forced <> wal_dump [ "r1"; "r2" ])

(* The full cluster digest must be a pure function of the schedule:
   replaying the same decision trail twice rebuilds byte-identical
   leaf state. *)
let test_cluster_digest_deterministic () =
  match Sweep.find_scenario "2PC-PrN/full" with
  | None -> Alcotest.fail "scenario 2PC-PrN/full missing from matrix"
  | Some sc ->
      let make = Sweep.make_sys sc in
      let opts = Sweep.opts_of sc ~sleep:false in
      let r1 = Explore.follow ~opts make [] in
      let r2 = Explore.follow ~opts make [] in
      Alcotest.(check string) "leaf state replays identically" r1.rp_state
        r2.rp_state;
      Alcotest.(check (list (pair string string))) "clean leaf" []
        r1.rp_violations

(* What the explorer explores, pinned on one real scenario: a change to
   dedup, sleep sets, canonical keys or the frontier that alters the
   search changes these counts. *)
let test_sweep_counts_pinned () =
  match Sweep.find_scenario "2PC-PrC/crash" with
  | None -> Alcotest.fail "scenario 2PC-PrC/crash missing from matrix"
  | Some sc ->
      let r =
        Explore.explore ~opts:(Sweep.opts_of sc ~sleep:true) (Sweep.make_sys sc)
      in
      let s = r.r_stats in
      Alcotest.(check int) "executions" 1_552 s.st_executions;
      Alcotest.(check int) "transitions" 17_091 s.st_transitions;
      Alcotest.(check int) "states" 1_444 s.st_states;
      Alcotest.(check int) "dedup hits" 1_295 s.st_dedup_hits;
      Alcotest.(check int) "leaves" 38 s.st_leaves;
      Alcotest.(check bool) "complete" true r.r_complete;
      Alcotest.(check int) "no violations" 0 (List.length r.r_violating)

(* The decision trace is kept as data and rendered by [follow]: its text
   is the counterexample format and must not drift. *)
let test_follow_trace_text () =
  match Sweep.find_scenario "QC/crash" with
  | None -> Alcotest.fail "scenario QC/crash missing from matrix"
  | Some sc ->
      let opts = Sweep.opts_of sc ~sleep:true in
      let out = Explore.follow ~opts (Sweep.make_sys sc) [ 0; 0; 0; 0; 1 ] in
      Alcotest.(check string) "first decision"
        "fire d0>1:T0.1@100.0us:write(a)#0 (alt 0/2)"
        (List.nth out.rp_trace 0);
      Alcotest.(check string) "crash decision"
        "crash site 0 at wal:force-volatile"
        (List.nth out.rp_trace 4)

(* --- sleep-set DPOR on hand-enumerable toys ---------------------------- *)

(* A toy system: [nsites] append-only logs, one Delivery-labelled event
   per [(dst, msg)] spec.  Deliveries to distinct sites are independent
   (disjoint scopes); deliveries to one site are dependent (append order
   is observable).  [record] collects the digest of every audited
   quiescent leaf, so tests can compare the reached-state sets across
   explorer configurations. *)
let toy_sys ~nsites ~deliveries ~record () =
  let e = Engine.create () in
  let logs = Array.make nsites [] in
  let desc_of = Hashtbl.create 8 in
  let digest () =
    Array.to_list logs
    |> List.mapi (fun i l ->
           Printf.sprintf "%d:[%s]" i (String.concat "," (List.rev l)))
    |> String.concat "|"
  in
  {
    Explore.ys_engine = e;
    ys_start =
      (fun () ->
        List.iter
          (fun (dst, msg) ->
            let id =
              Engine.schedule_at
                ~label:(Engine.Delivery { src = nsites; dst })
                e (Time.us 10)
                (fun () -> logs.(dst) <- msg :: logs.(dst))
            in
            Hashtbl.replace desc_of (Engine.event_seq id) msg)
          deliveries);
    ys_digest = digest;
    ys_delivery_class =
      (fun ~seq ->
        Explore.Choice
          (match Hashtbl.find_opt desc_of seq with Some m -> m | None -> "?"));
    ys_crash_ok = (fun ~site:_ ~point:_ -> false);
    ys_crash = (fun ~site:_ -> ());
    ys_drain = (fun () -> ());
    ys_audit =
      (fun () ->
        record (digest ());
        []);
  }

let toy_opts ~sleep ~dedup =
  {
    Explore.default_opts with
    op_sleep = sleep;
    op_dedup = dedup;
    op_max_executions = 1_000;
  }

let explore_toy ~nsites ~deliveries ~sleep ~dedup =
  let seen = Hashtbl.create 8 in
  let record d = Hashtbl.replace seen d () in
  let r =
    Explore.explore
      ~opts:(toy_opts ~sleep ~dedup)
      (toy_sys ~nsites ~deliveries ~record)
  in
  Alcotest.(check bool) "space fully covered" true r.r_complete;
  Alcotest.(check int) "no violations" 0 (List.length r.r_violating);
  let states =
    Hashtbl.fold (fun k () acc -> k :: acc) seen []
    |> List.sort String.compare
  in
  (r.r_stats, states)

(* Two deliveries to distinct sites commute: one Mazurkiewicz trace.
   Without sleep sets both interleavings run; with sleep sets the mirror
   order is cut as a sleep-blocked partial path. *)
let test_dpor_independent_pair () =
  let deliveries = [ (0, "x"); (1, "y") ] in
  let st0, states0 =
    explore_toy ~nsites:2 ~deliveries ~sleep:false ~dedup:false
  in
  Alcotest.(check int) "2 interleavings without POR" 2 st0.st_executions;
  Alcotest.(check int) "both audited" 2 st0.st_leaves;
  let st1, states1 =
    explore_toy ~nsites:2 ~deliveries ~sleep:true ~dedup:false
  in
  Alcotest.(check int) "one trace with sleep sets" 1 st1.st_leaves;
  Alcotest.(check int) "mirror path pruned" 1 st1.st_sleep_prunes;
  Alcotest.(check (list string)) "same reached states" states0 states1;
  Alcotest.(check int) "exactly one final state" 1 (List.length states1)

(* Two deliveries to one site conflict: both orders are distinct traces
   and sleep sets must not prune either. *)
let test_dpor_dependent_pair () =
  let deliveries = [ (0, "x"); (0, "y") ] in
  let st0, states0 =
    explore_toy ~nsites:1 ~deliveries ~sleep:false ~dedup:false
  in
  Alcotest.(check int) "2 interleavings" 2 st0.st_executions;
  let st1, states1 =
    explore_toy ~nsites:1 ~deliveries ~sleep:true ~dedup:false
  in
  Alcotest.(check int) "both orders kept" 2 st1.st_leaves;
  Alcotest.(check int) "nothing pruned" 0 st1.st_sleep_prunes;
  Alcotest.(check (list string)) "same reached states" states0 states1;
  Alcotest.(check int) "two final states" 2 (List.length states1)

(* Mixed case, fully hand-enumerable: a,b hit site 0 (dependent pair),
   c hits site 1 (independent of both).  3! = 6 interleavings collapse
   to 2 traces — the two orders of a,b with c slotted anywhere.

   Hand-run of the sleep-set DFS (alternatives in seq order a,b,c):
     1. a b c   -> leaf ab|c
     2. a c ... -> b asleep after independent c: pruned
     3. b a c   -> leaf ba|c   (a woken by dependent b)
     4. b c ... -> a asleep: pruned
     5. c ...   -> a,b both asleep: pruned
   5 executions, 2 audited leaves, 3 sleep prunes. *)
let test_dpor_mixed_triple () =
  let deliveries = [ (0, "a"); (0, "b"); (1, "c") ] in
  let st0, states0 =
    explore_toy ~nsites:2 ~deliveries ~sleep:false ~dedup:false
  in
  Alcotest.(check int) "6 interleavings without POR" 6 st0.st_executions;
  Alcotest.(check int) "all audited" 6 st0.st_leaves;
  let st1, states1 =
    explore_toy ~nsites:2 ~deliveries ~sleep:true ~dedup:false
  in
  Alcotest.(check int) "5 executions with sleep sets" 5 st1.st_executions;
  Alcotest.(check int) "2 traces audited" 2 st1.st_leaves;
  Alcotest.(check int) "3 paths pruned" 3 st1.st_sleep_prunes;
  Alcotest.(check (list string)) "same reached states" states0 states1;
  Alcotest.(check int) "two final states" 2 (List.length states1);
  (* Dedup must not lose either trace: the two leaf states differ, so
     both still get audited with the cache on. *)
  let _, states2 = explore_toy ~nsites:2 ~deliveries ~sleep:true ~dedup:true in
  Alcotest.(check (list string)) "dedup preserves the state set" states0
    states2

let () =
  Alcotest.run "explore"
    [
      ( "fingerprints",
        [
          Alcotest.test_case "kv permuted insertion" `Quick
            test_kv_permuted_insertion;
          Alcotest.test_case "kv different values" `Quick
            test_kv_different_values_differ;
          Alcotest.test_case "checkpoint permuted store" `Quick
            test_checkpoint_permuted_store;
          Alcotest.test_case "wal contents distinguish" `Quick
            test_wal_contents_distinguish;
          Alcotest.test_case "cluster digest deterministic" `Quick
            test_cluster_digest_deterministic;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "2PC-PrC/crash counts" `Quick
            test_sweep_counts_pinned;
          Alcotest.test_case "follow trace text" `Quick test_follow_trace_text;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "independent pair" `Quick
            test_dpor_independent_pair;
          Alcotest.test_case "dependent pair" `Quick test_dpor_dependent_pair;
          Alcotest.test_case "mixed triple" `Quick test_dpor_mixed_triple;
        ] );
    ]
