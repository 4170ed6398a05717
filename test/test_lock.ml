(* Tests for the lock manager: compatibility, FIFO fairness, upgrades,
   release/promotion, wait-for graphs, and deadlock detection. *)

open Rt_sim
open Rt_types
open Rt_lock

let txn seq = Ids.Txn_id.make ~origin:0 ~seq ~start_ts:(Time.ms seq)
let tid = Alcotest.testable Ids.Txn_id.pp Ids.Txn_id.equal

let granted = ref []
let on_grant name () = granted := name :: !granted
let reset () = granted := []

let check_outcome = Alcotest.(check bool)

let test_shared_compatible () =
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  check_outcome "a S granted" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(on_grant "a")
     = Granted);
  check_outcome "b S granted" true
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(on_grant "b")
     = Granted);
  Alcotest.(check int) "two holders" 2
    (List.length (Lock_table.holders t ~key:"k"))

let test_exclusive_conflicts () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  check_outcome "a X granted" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive
       ~on_grant:(on_grant "a")
     = Granted);
  check_outcome "b S waits" true
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(on_grant "b")
     = Waiting);
  Alcotest.(check bool) "b is waiting" true (Lock_table.is_waiting t ~txn:b);
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "b granted on release" [ "b" ] !granted;
  Alcotest.(check bool) "b no longer waiting" false
    (Lock_table.is_waiting t ~txn:b)

let test_reentrant () =
  let t = Lock_table.create () in
  let a = txn 1 in
  ignore
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () ->
         ()));
  check_outcome "re-acquire X" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () ->
         Alcotest.fail "no callback")
     = Granted);
  check_outcome "S while holding X" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () ->
         Alcotest.fail "no callback")
     = Granted)

let test_upgrade_sole_holder () =
  let t = Lock_table.create () in
  let a = txn 1 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  check_outcome "upgrade granted" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () ->
         Alcotest.fail "sync grant expected")
     = Granted);
  Alcotest.(check bool) "holds X" true
    (Lock_table.holds t ~txn:a ~key:"k" = Some Exclusive)

let test_upgrade_waits_for_other_reader () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  check_outcome "upgrade waits" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive
       ~on_grant:(on_grant "a-upgrade")
     = Waiting);
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (list string)) "upgrade granted after reader left"
    [ "a-upgrade" ] !granted;
  Alcotest.(check bool) "holds X now" true
    (Lock_table.holds t ~txn:a ~key:"k" = Some Exclusive)

let test_upgrade_jumps_queue () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  (* c wants X and queues; then a upgrades: the upgrade must be served
     before c, otherwise a and c deadlock behind each other. *)
  ignore
    (Lock_table.acquire t ~txn:c ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "c"));
  ignore
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive
       ~on_grant:(on_grant "a"));
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (list string)) "upgrade first" [ "a" ] !granted;
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "then c" [ "c"; "a" ] !granted

let test_fifo_no_starvation () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  (* b queues for X; a later S request from c must NOT overtake b. *)
  ignore
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b"));
  check_outcome "late S waits behind X" true
    (Lock_table.acquire t ~txn:c ~key:"k" ~mode:Shared ~on_grant:(on_grant "c")
     = Waiting);
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "b served first" [ "b" ] !granted;
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (list string)) "then c" [ "c"; "b" ] !granted

let test_batch_shared_grant () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(on_grant "b"));
  ignore (Lock_table.acquire t ~txn:c ~key:"k" ~mode:Shared ~on_grant:(on_grant "c"));
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "both readers granted together" [ "c"; "b" ]
    !granted

let test_release_removes_queued_requests () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b"));
  (* b aborts while waiting. *)
  Lock_table.release_all t ~txn:b;
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "b never granted" [] !granted;
  Alcotest.(check int) "table empty" 0 (Lock_table.locked_keys t)

(* Regression: cancelling a queued request must unblock compatible
   waiters queued behind it, even though no lock was held or released. *)
let test_cancel_waiter_unblocks_queue () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  (* b queues for X behind a's S; c queues for S behind b. *)
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b"));
  ignore (Lock_table.acquire t ~txn:c ~key:"k" ~mode:Shared ~on_grant:(on_grant "c"));
  (* b aborts while holding nothing: c is now compatible with a and must
     be granted immediately. *)
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (list string)) "c granted when blocker cancelled" [ "c" ]
    !granted

(* Regression (found by the nemesis lossy campaign): the same operation
   delivered twice queues two requests for one txn.  Granting the first
   used to wipe every waits-index entry for the key, so the second
   request survived release_all invisibly and was re-granted to the
   already-dead transaction during its own release — a permanent leak. *)
let test_duplicate_queued_request_no_leak () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b1"));
  ignore
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b2"));
  Lock_table.release_all t ~txn:a;
  (* Both copies are granted (idempotent for one txn), one holder entry. *)
  Alcotest.(check (list string)) "both callbacks fired" [ "b2"; "b1" ] !granted;
  Alcotest.(check int) "single holder entry" 1
    (List.length (Lock_table.holders t ~key:"k"));
  Lock_table.release_all t ~txn:b;
  Alcotest.(check int) "no leak after release" 0 (Lock_table.locked_keys t)

(* An S and an X request from one txn queued together must coalesce into
   a single exclusive hold, not a mixed holder list or a self-deadlock. *)
let test_queued_s_then_x_same_txn_coalesces () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(on_grant "bs"));
  ignore
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "bx"));
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "both granted in order" [ "bx"; "bs" ] !granted;
  Alcotest.(check bool) "holds X" true
    (Lock_table.holds t ~txn:b ~key:"k" = Some Exclusive);
  Alcotest.(check int) "single holder entry" 1
    (List.length (Lock_table.holders t ~key:"k"));
  Lock_table.release_all t ~txn:b;
  Alcotest.(check int) "no leak after release" 0 (Lock_table.locked_keys t)

let test_held_keys () =
  let t = Lock_table.create () in
  let a = txn 1 in
  ignore (Lock_table.acquire t ~txn:a ~key:"x" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:a ~key:"y" ~mode:Exclusive ~on_grant:(fun () -> ()));
  Alcotest.(check (list string)) "held keys" [ "x"; "y" ]
    (Lock_table.held_keys t ~txn:a)

(* --- deadlock detection --------------------------------------------- *)

let test_deadlock_cycle_detected () =
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"x" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"y" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:a ~key:"y" ~mode:Exclusive ~on_grant:(fun () -> ()));
  Alcotest.(check (option tid)) "no deadlock yet" None
    (Lock_table.detect_deadlock t);
  ignore (Lock_table.acquire t ~txn:b ~key:"x" ~mode:Exclusive ~on_grant:(fun () -> ()));
  (match Lock_table.detect_deadlock t with
  | Some victim ->
      (* Youngest = b (started later). *)
      Alcotest.(check tid) "youngest is victim" b victim
  | None -> Alcotest.fail "deadlock not detected");
  (* Aborting the victim unblocks the system. *)
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (option tid)) "resolved" None (Lock_table.detect_deadlock t)

let test_upgrade_deadlock () =
  (* Two readers that both try to upgrade deadlock with each other. *)
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  match Lock_table.detect_deadlock t with
  | Some _ -> ()
  | None -> Alcotest.fail "upgrade-upgrade deadlock not detected"

(* A duplicated delivery queues a second request of [a] behind [b]'s:
   [a] then waits behind [b] too, and the probes' [blocking] must say so
   just as detection does. *)
let test_blocking_covers_every_request () =
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 in
  let acquire txn mode =
    ignore (Lock_table.acquire t ~txn ~key:"k" ~mode ~on_grant:(fun () -> ()))
  in
  acquire c Exclusive;
  acquire a Shared;
  acquire b Exclusive;
  acquire a Shared;
  Alcotest.(check (list (pair tid string)))
    "queue" [ (a, "S"); (b, "X"); (a, "S") ]
    (List.map
       (fun (w, m) -> (w, Format.asprintf "%a" Lock_table.pp_mode m))
       (Lock_table.waiters t ~key:"k"));
  Alcotest.(check (list tid)) "blockers of both requests" [ b; c ]
    (Lock_table.blocking t ~txn:a);
  Alcotest.(check (list tid)) "b waits behind a and c" [ a; c ]
    (Lock_table.blocking t ~txn:b);
  Alcotest.(check (option tid)) "youngest of a <-> b" (Some b)
    (Lock_table.detect_deadlock t)

(* The one victim loop: it kills the youngest of each cycle until none
   remains, and refuses a [kill] that leaves its victim waiting, which
   would loop forever. *)
let test_resolve_deadlocks () =
  let deadlock () =
    let t = Lock_table.create () in
    let a = txn 1 and b = txn 2 in
    let acquire txn key =
      ignore
        (Lock_table.acquire t ~txn ~key ~mode:Exclusive
           ~on_grant:(fun () -> ()))
    in
    acquire a "x";
    acquire b "y";
    acquire a "y";
    acquire b "x";
    (t, a, b)
  in
  let t, a, b = deadlock () in
  let killed = ref [] in
  Lock_table.resolve_deadlocks t ~kill:(fun victim ->
      killed := victim :: !killed;
      Lock_table.release_all t ~txn:victim);
  Alcotest.(check (list tid)) "one victim, the youngest" [ b ] !killed;
  Alcotest.(check (list string)) "a holds both" [ "x"; "y" ]
    (Lock_table.held_keys t ~txn:a);
  let t, _, _ = deadlock () in
  match Lock_table.resolve_deadlocks t ~kill:(fun _ -> ()) with
  | () -> Alcotest.fail "a kill that leaves its victim waiting was accepted"
  | exception Invalid_argument _ -> ()

(* --- Wfg primitives --------------------------------------------------- *)

let test_wfg_cycle () =
  let a = txn 1 and b = txn 2 and c = txn 3 in
  let edges = [ (a, b); (b, c) ] in
  Alcotest.(check bool) "acyclic" true (Wfg.find_cycle edges = None);
  (match Wfg.find_cycle ((c, a) :: edges) with
  | Some cycle -> Alcotest.(check int) "cycle length" 3 (List.length cycle)
  | None -> Alcotest.fail "cycle expected");
  Alcotest.(check tid) "youngest victim" c
    (Wfg.victim [ a; b; c ])

let test_wfg_self_edges_ignored () =
  let a = txn 1 in
  Alcotest.(check bool) "self edge no cycle" true
    (Wfg.find_cycle [ (a, a) ] = None)

(* Sound and complete against a reachability reference; every cycle
   returned is a simple cycle of the input; and the answer depends only
   on the edge set, so reversed or repeated edges change nothing. *)
let prop_wfg_cycle_detection_matches_reachability =
  let gen =
    QCheck.Gen.(small_list (pair (int_range 0 6) (int_range 0 6)))
  in
  QCheck.Test.make ~name:"wfg cycle detection is sound+complete" ~count:300
    (QCheck.make gen ~print:(fun edges ->
         String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges)))
    (fun int_edges ->
      let node i = txn (i + 1) in
      let edges = List.map (fun (a, b) -> (node a, node b)) int_edges in
      let found = Wfg.find_cycle edges in
      (* Reference: Floyd-Warshall style reachability over non-self edges. *)
      let n = 7 in
      let reach = Array.make_matrix n n false in
      List.iter (fun (a, b) -> if a <> b then reach.(a).(b) <- true) int_edges;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
          done
        done
      done;
      let has_cycle = ref false in
      for i = 0 to n - 1 do
        if reach.(i).(i) then has_cycle := true
      done;
      let edge a b =
        List.exists
          (fun (x, y) -> Ids.Txn_id.equal x a && Ids.Txn_id.equal y b)
          edges
      in
      let cycle_of_input = function
        | None -> true
        | Some cycle ->
            let rec chain first = function
              | [ last ] -> edge last first
              | x :: (y :: _ as rest) -> edge x y && chain first rest
              | [] -> false
            in
            List.length cycle >= 2
            && List.length (List.sort_uniq Ids.Txn_id.compare cycle)
               = List.length cycle
            && chain (List.hd cycle) cycle
      in
      let same = Option.equal (List.equal Ids.Txn_id.equal) found in
      (found <> None) = !has_cycle
      && cycle_of_input found
      && same (Wfg.find_cycle (List.rev edges))
      && same (Wfg.find_cycle (edges @ List.rev edges)))

(* Randomized lock workload: invariants hold at every step. *)
let prop_lock_invariants =
  let gen =
    QCheck.Gen.(
      small_list
        (triple (int_range 1 5) (int_range 0 3) (oneofl [ `S; `X; `Release ])))
  in
  QCheck.Test.make ~name:"lock table invariants under random workloads"
    ~count:300
    (QCheck.make gen)
    (fun ops ->
      let t = Lock_table.create () in
      let key k = Printf.sprintf "k%d" k in
      let ok = ref true in
      List.iter
        (fun (ti, ki, op) ->
          let tx = txn ti in
          (match op with
          | `S ->
              ignore
                (Lock_table.acquire t ~txn:tx ~key:(key ki) ~mode:Shared
                   ~on_grant:(fun () -> ()))
          | `X ->
              ignore
                (Lock_table.acquire t ~txn:tx ~key:(key ki) ~mode:Exclusive
                   ~on_grant:(fun () -> ()))
          | `Release -> Lock_table.release_all t ~txn:tx);
          (* Invariant: a key's holders are one X or all S. *)
          for k = 0 to 3 do
            let holders = Lock_table.holders t ~key:(key k) in
            let xs =
              List.filter (fun (_, m) -> m = Lock_table.Exclusive) holders
            in
            if List.length xs > 1 then ok := false;
            if List.length xs = 1 && List.length holders > 1 then ok := false
          done)
        ops;
      !ok)

(* --- timestamp-ordering stamps ------------------------------------------ *)

let admitted = Alcotest.(check bool)

(* Independent operations on three keys, applied key by key in the given
   order, with the writers queued on "c" in the given order: reordering
   changes hash-table and pending-list insertion order, not the state. *)
let stamps_filled ~keys ~writers =
  let t = Stamps.create () in
  List.iter
    (function
      | "a" ->
          ignore (Stamps.read t ~txn:(txn 3) ~key:"a");
          ignore (Stamps.write t ~txn:(txn 4) ~key:"a")
      | "b" ->
          ignore (Stamps.write t ~txn:(txn 2) ~key:"b");
          ignore (Stamps.install t ~txn:(txn 2) ~key:"b");
          Stamps.release t ~txn:(txn 2)
      | key -> List.iter (fun n -> ignore (Stamps.write t ~txn:(txn n) ~key)) writers)
    keys;
  t

let test_stamps_dump_canonical () =
  let a = stamps_filled ~keys:[ "a"; "b"; "c" ] ~writers:[ 5; 6 ] in
  let b = stamps_filled ~keys:[ "c"; "b"; "a" ] ~writers:[ 6; 5 ] in
  Alcotest.(check string) "dumps equal" (Stamps.dump a) (Stamps.dump b);
  let c = stamps_filled ~keys:[ "a"; "b"; "c" ] ~writers:[ 5; 6 ] in
  ignore (Stamps.read c ~txn:(txn 7) ~key:"b");
  Alcotest.(check bool) "different stamps differ" true
    (Stamps.dump a <> Stamps.dump c)

let test_stamps_read_after_newer_write () =
  let t = Stamps.create () in
  admitted "newer write" true (Stamps.write t ~txn:(txn 2) ~key:"k");
  admitted "newer install" true (Stamps.install t ~txn:(txn 2) ~key:"k");
  Stamps.release t ~txn:(txn 2);
  admitted "older read refused" false (Stamps.read t ~txn:(txn 1) ~key:"k");
  admitted "newer read admitted" true (Stamps.read t ~txn:(txn 3) ~key:"k")

let test_stamps_read_waits_for_pending () =
  let t = Stamps.create () in
  admitted "older write" true (Stamps.write t ~txn:(txn 1) ~key:"k");
  admitted "read behind pending writer refused" false
    (Stamps.read t ~txn:(txn 2) ~key:"k");
  Stamps.release t ~txn:(txn 1);
  admitted "read admitted after release" true
    (Stamps.read t ~txn:(txn 2) ~key:"k")

let test_stamps_write_after_newer_read () =
  let t = Stamps.create () in
  admitted "newer read" true (Stamps.read t ~txn:(txn 2) ~key:"k");
  admitted "older write refused" false (Stamps.write t ~txn:(txn 1) ~key:"k");
  admitted "newer write admitted" true (Stamps.write t ~txn:(txn 3) ~key:"k")

let test_stamps_thomas_write_rule () =
  let t = Stamps.create () in
  admitted "older write" true (Stamps.write t ~txn:(txn 1) ~key:"k");
  admitted "newer write" true (Stamps.write t ~txn:(txn 2) ~key:"k");
  admitted "newer installs" true (Stamps.install t ~txn:(txn 2) ~key:"k");
  let before = Stamps.dump t in
  admitted "obsolete write skipped" false
    (Stamps.install t ~txn:(txn 1) ~key:"k");
  Alcotest.(check string) "write stamp kept" before (Stamps.dump t)

let test_stamps_refusal_changes_nothing () =
  let t = Stamps.create () in
  ignore (Stamps.write t ~txn:(txn 3) ~key:"k");
  ignore (Stamps.install t ~txn:(txn 3) ~key:"k");
  ignore (Stamps.read t ~txn:(txn 4) ~key:"k");
  ignore (Stamps.write t ~txn:(txn 5) ~key:"k");
  let before = Stamps.dump t in
  admitted "old read refused" false (Stamps.read t ~txn:(txn 1) ~key:"k");
  admitted "old write refused" false (Stamps.write t ~txn:(txn 2) ~key:"k");
  Alcotest.(check string) "state unchanged" before (Stamps.dump t);
  Stamps.release t ~txn:(txn 2);
  Alcotest.(check string) "no mark to release" before (Stamps.dump t)

let () =
  Alcotest.run "lock"
    [
      ( "grants",
        [
          Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "exclusive conflicts" `Quick
            test_exclusive_conflicts;
          Alcotest.test_case "reentrant" `Quick test_reentrant;
          Alcotest.test_case "batch shared grant" `Quick test_batch_shared_grant;
          Alcotest.test_case "held keys" `Quick test_held_keys;
        ] );
      ( "upgrades",
        [
          Alcotest.test_case "sole holder" `Quick test_upgrade_sole_holder;
          Alcotest.test_case "waits for reader" `Quick
            test_upgrade_waits_for_other_reader;
          Alcotest.test_case "jumps queue" `Quick test_upgrade_jumps_queue;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "fifo no starvation" `Quick test_fifo_no_starvation;
          Alcotest.test_case "release removes queued" `Quick
            test_release_removes_queued_requests;
          Alcotest.test_case "cancelled waiter unblocks queue" `Quick
            test_cancel_waiter_unblocks_queue;
          Alcotest.test_case "duplicate queued request no leak" `Quick
            test_duplicate_queued_request_no_leak;
          Alcotest.test_case "queued S then X coalesces" `Quick
            test_queued_s_then_x_same_txn_coalesces;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "cycle detected" `Quick test_deadlock_cycle_detected;
          Alcotest.test_case "upgrade deadlock" `Quick test_upgrade_deadlock;
          Alcotest.test_case "blocking covers every request" `Quick
            test_blocking_covers_every_request;
          Alcotest.test_case "resolve deadlocks" `Quick test_resolve_deadlocks;
          Alcotest.test_case "wfg cycle" `Quick test_wfg_cycle;
          Alcotest.test_case "wfg self edges" `Quick test_wfg_self_edges_ignored;
          QCheck_alcotest.to_alcotest
            prop_wfg_cycle_detection_matches_reachability;
          QCheck_alcotest.to_alcotest prop_lock_invariants;
        ] );
      ( "stamps",
        [
          Alcotest.test_case "dump canonical" `Quick test_stamps_dump_canonical;
          Alcotest.test_case "read after newer write" `Quick
            test_stamps_read_after_newer_write;
          Alcotest.test_case "read waits for pending writer" `Quick
            test_stamps_read_waits_for_pending;
          Alcotest.test_case "write after newer read" `Quick
            test_stamps_write_after_newer_read;
          Alcotest.test_case "thomas write rule" `Quick
            test_stamps_thomas_write_rule;
          Alcotest.test_case "refusal changes nothing" `Quick
            test_stamps_refusal_changes_nothing;
        ] );
    ]
