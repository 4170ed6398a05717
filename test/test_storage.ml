(* Tests for the storage engine: KV semantics, WAL durability and group
   commit, crash behaviour, truncation, recovery classification and
   replay, checkpoints. *)

open Rt_sim
open Rt_types
open Rt_storage

let txn ?(origin = 0) seq =
  Ids.Txn_id.make ~origin ~seq ~start_ts:(Time.ms seq)

let tid = Alcotest.testable Ids.Txn_id.pp Ids.Txn_id.equal

(* --- Kv ------------------------------------------------------------- *)

let test_kv_basic () =
  let kv = Kv.create () in
  Alcotest.(check bool) "absent" true (Kv.get kv "a" = None);
  Alcotest.(check int) "version 0 when absent" 0 (Kv.version kv "a");
  Kv.set kv ~key:"a" ~value:"1" ~version:1;
  Alcotest.(check bool) "present" true (Kv.mem kv "a");
  (match Kv.get kv "a" with
  | Some { value; version } ->
      Alcotest.(check string) "value" "1" value;
      Alcotest.(check int) "version" 1 version
  | None -> Alcotest.fail "expected item");
  Kv.set kv ~key:"a" ~value:"2" ~version:2;
  Alcotest.(check int) "overwrite version" 2 (Kv.version kv "a");
  Kv.remove kv "a";
  Alcotest.(check bool) "removed" false (Kv.mem kv "a")

let test_kv_snapshot_restore () =
  let kv = Kv.create () in
  Kv.set kv ~key:"x" ~value:"1" ~version:1;
  Kv.set kv ~key:"y" ~value:"2" ~version:3;
  let snap = Kv.snapshot kv in
  Kv.set kv ~key:"x" ~value:"dirty" ~version:9;
  Kv.remove kv "y";
  Kv.restore kv snap;
  Alcotest.(check int) "x version restored" 1 (Kv.version kv "x");
  Alcotest.(check int) "y restored" 3 (Kv.version kv "y");
  Alcotest.(check bool) "equal to copy" true (Kv.equal kv (Kv.copy kv))

let prop_kv_snapshot_roundtrip =
  QCheck.Test.make ~name:"kv snapshot/restore roundtrip" ~count:100
    QCheck.(small_list (pair (string_of_size Gen.(1 -- 8)) small_nat))
    (fun entries ->
      let kv = Kv.create () in
      List.iteri
        (fun i (k, v) ->
          Kv.set kv ~key:k ~value:(string_of_int v) ~version:(i + 1))
        entries;
      let snap = Kv.snapshot kv in
      let kv2 = Kv.create () in
      Kv.restore kv2 snap;
      Kv.equal kv kv2)

(* --- Wal ------------------------------------------------------------ *)

let test_wal_append_and_force () =
  let e = Engine.create () in
  let wal = Wal.create e ~force_latency:(Time.us 100) () in
  let l1 = Wal.append wal "r1" in
  let l2 = Wal.append wal "r2" in
  Alcotest.(check int) "lsns" 1 l1;
  Alcotest.(check int) "lsns" 2 l2;
  Alcotest.(check int) "nothing durable yet" 0 (Wal.durable_lsn wal);
  let done_at = ref (-1) in
  Wal.force wal (fun () -> done_at := Engine.now e);
  Engine.run e;
  Alcotest.(check int) "durable after force" 2 (Wal.durable_lsn wal);
  Alcotest.(check int) "force took latency" (Time.us 100) !done_at;
  Alcotest.(check (list string)) "durable records" [ "r1"; "r2" ]
    (Wal.durable_records wal)

let test_wal_group_commit () =
  let e = Engine.create () in
  let wal = Wal.create e ~force_latency:(Time.us 100) () in
  ignore (Wal.append wal "a");
  let finished = ref [] in
  Wal.force wal (fun () -> finished := "f1" :: !finished);
  (* While the device is busy, two more forces arrive; they coalesce into
     a single second cycle. *)
  ignore
    (Engine.schedule_after e (Time.us 10) (fun () ->
         ignore (Wal.append wal "b");
         Wal.force wal (fun () -> finished := "f2" :: !finished)));
  ignore
    (Engine.schedule_after e (Time.us 20) (fun () ->
         ignore (Wal.append wal "c");
         Wal.force wal (fun () -> finished := "f3" :: !finished)));
  Engine.run e;
  Alcotest.(check (list string)) "all forces completed" [ "f3"; "f2"; "f1" ]
    !finished;
  Alcotest.(check int) "two device cycles" 2 (Wal.force_count wal);
  Alcotest.(check int) "everything durable" 3 (Wal.durable_lsn wal)

let test_wal_group_window_coalesces () =
  let e = Engine.create () in
  let wal =
    Wal.create ~group_window:(Time.us 50) e ~force_latency:(Time.us 100) ()
  in
  (* Three forces land inside one flush window; none is acknowledged
     before the single covering device cycle completes. *)
  let acks = ref [] in
  let force_at t tag =
    ignore
      (Engine.schedule_at e t (fun () ->
           let lsn = Wal.append wal tag in
           Wal.force wal (fun () ->
               Alcotest.(check bool)
                 "ack only after covering flush" true
                 (Wal.durable_lsn wal >= lsn);
               acks := (tag, Engine.now e) :: !acks)))
  in
  force_at Time.zero "a";
  force_at (Time.us 10) "b";
  force_at (Time.us 40) "c";
  Engine.run e;
  (* Window arms at t=0, fires at 50, device cycle completes at 150. *)
  Alcotest.(check (list (pair string int)))
    "all acked together, in order"
    [ ("a", Time.us 150); ("b", Time.us 150); ("c", Time.us 150) ]
    (List.rev !acks);
  Alcotest.(check int) "one device cycle for three forces" 1
    (Wal.force_count wal);
  let st = Wal.stats wal in
  Alcotest.(check int) "started" 1 st.st_started;
  Alcotest.(check int) "completed" 1 st.st_completed;
  Alcotest.(check int) "lost" 0 st.st_lost;
  Alcotest.(check int) "pending" 0 st.st_pending

let test_wal_crash_between_enqueue_and_flush () =
  let e = Engine.create () in
  let wal =
    Wal.create ~group_window:(Time.us 50) e ~force_latency:(Time.us 100) ()
  in
  ignore (Wal.append wal "a");
  let fired = ref false in
  Wal.force wal (fun () -> fired := true);
  (* Crash while the flush window is still armed: the device never
     started, so no cycle is started, completed, or lost. *)
  ignore (Engine.schedule_at e (Time.us 20) (fun () -> Wal.crash wal));
  Engine.run e;
  Alcotest.(check bool) "ack silenced" false !fired;
  Alcotest.(check int) "no device cycle counted" 0 (Wal.force_count wal);
  let st = Wal.stats wal in
  Alcotest.(check int) "none started" 0 st.st_started;
  Alcotest.(check int) "none lost" 0 st.st_lost;
  Alcotest.(check int) "nothing left waiting" 0 st.st_pending

let test_wal_crash_mid_cycle_counts_lost () =
  let e = Engine.create () in
  let wal =
    Wal.create ~group_window:(Time.us 50) e ~force_latency:(Time.us 100) ()
  in
  ignore (Wal.append wal "a");
  Wal.force wal (fun () -> ());
  (* Crash after the window fired (t=50) but before the device cycle
     completes (t=150): the in-flight flush is lost, not completed. *)
  ignore (Engine.schedule_at e (Time.us 80) (fun () -> Wal.crash wal));
  Engine.run e;
  Alcotest.(check int) "lost cycle not in force_count" 0 (Wal.force_count wal);
  let st = Wal.stats wal in
  Alcotest.(check int) "started" 1 st.st_started;
  Alcotest.(check int) "completed" 0 st.st_completed;
  Alcotest.(check int) "lost" 1 st.st_lost;
  Alcotest.(check int) "nothing durable" 0 (Wal.durable_lsn wal)

let test_wal_force_when_already_durable () =
  let e = Engine.create () in
  let wal = Wal.create e ~force_latency:(Time.us 100) () in
  ignore (Wal.append wal "a");
  Wal.force wal (fun () -> ());
  Engine.run e;
  let fired = ref false in
  Wal.force wal ~upto:1 (fun () -> fired := true);
  Engine.run e;
  Alcotest.(check bool) "immediate completion" true !fired;
  Alcotest.(check int) "no extra device cycle" 1 (Wal.force_count wal)

let test_wal_crash_loses_volatile_suffix () =
  let e = Engine.create () in
  let wal = Wal.create e ~force_latency:(Time.us 100) () in
  ignore (Wal.append wal "a");
  Wal.force wal (fun () -> ());
  Engine.run e;
  ignore (Wal.append wal "b");
  let fired = ref false in
  Wal.force wal (fun () -> fired := true);
  Wal.crash wal;
  Engine.run e;
  Alcotest.(check bool) "pending force callback silenced" false !fired;
  Alcotest.(check int) "durable prefix survives" 1 (Wal.durable_lsn wal);
  Alcotest.(check (list string)) "only durable record" [ "a" ]
    (Wal.all_records wal)

let test_wal_truncate () =
  let e = Engine.create () in
  let wal = Wal.create e ~force_latency:(Time.us 10) () in
  for i = 1 to 5 do
    ignore (Wal.append wal (Printf.sprintf "r%d" i))
  done;
  Wal.force wal (fun () -> ());
  Engine.run e;
  Wal.truncate wal ~upto:3;
  Alcotest.(check int) "first lsn" 4 (Wal.first_lsn wal);
  Alcotest.(check int) "tail stable" 5 (Wal.tail_lsn wal);
  Alcotest.(check (list string)) "suffix" [ "r4"; "r5" ] (Wal.durable_records wal);
  let l6 = Wal.append wal "r6" in
  Alcotest.(check int) "numbering continues" 6 l6;
  Alcotest.check_raises "cannot truncate past durable"
    (Invalid_argument "Wal.truncate: beyond durable point") (fun () ->
      Wal.truncate wal ~upto:6)

(* --- Recovery -------------------------------------------------------- *)

let upd t key value version =
  Log_record.Update { txn = t; key; value; version }

let test_recovery_winners_only () =
  let t1 = txn 1 and t2 = txn 2 in
  let log =
    [
      upd t1 "a" "1" 1;
      upd t2 "b" "2" 1;
      Log_record.Prepared { txn = t1; participants = [ 0 ] };
      Log_record.Prepared { txn = t2; participants = [ 0 ] };
      Log_record.Commit t1;
      Log_record.Abort t2;
    ]
  in
  let kv = Kv.create () in
  let o = Recovery.recover kv log in
  Alcotest.(check (list tid)) "winner" [ t1 ] o.committed;
  Alcotest.(check (list tid)) "loser" [ t2 ] o.aborted;
  Alcotest.(check (list tid)) "no in-doubt" []
    (List.map (fun (d : Recovery.in_doubt) -> d.txn) o.in_doubt);
  Alcotest.(check int) "one redo" 1 o.redone;
  Alcotest.(check bool) "a applied" true (Kv.mem kv "a");
  Alcotest.(check bool) "b not applied" false (Kv.mem kv "b")

let test_recovery_in_doubt () =
  let t1 = txn 1 and t2 = txn 2 in
  let log =
    [
      upd t1 "a" "1" 1;
      Log_record.Prepared { txn = t1; participants = [ 0 ] };
      upd t2 "b" "1" 1;
      Log_record.Prepared { txn = t2; participants = [ 0 ] };
      Log_record.Precommit t2;
    ]
  in
  let kv = Kv.create () in
  let o = Recovery.recover kv log in
  Alcotest.(check (list tid)) "both in doubt" [ t1; t2 ]
    (List.map (fun (d : Recovery.in_doubt) -> d.txn) o.in_doubt);
  Alcotest.(check (list tid)) "t2 precommitted" [ t2 ]
    (List.filter_map
       (fun (d : Recovery.in_doubt) ->
         if d.state = Recovery.D_precommitted then Some d.txn else None)
       o.in_doubt);
  Alcotest.(check int) "no redo for in-doubt" 0 o.redone

let test_recovery_idempotent () =
  let t1 = txn 1 in
  let log = [ upd t1 "a" "5" 3; Log_record.Commit t1 ] in
  let kv = Kv.create () in
  ignore (Recovery.recover kv log);
  let snap = Kv.snapshot kv in
  ignore (Recovery.recover kv log);
  Alcotest.(check bool) "idempotent replay" true (Kv.snapshot kv = snap)

let test_recovery_last_write_wins () =
  let t1 = txn 1 and t2 = txn 2 in
  let log =
    [
      upd t1 "a" "1" 1; Log_record.Commit t1; upd t2 "a" "2" 2;
      Log_record.Commit t2;
    ]
  in
  let kv = Kv.create () in
  ignore (Recovery.recover kv log);
  Alcotest.(check int) "final version" 2 (Kv.version kv "a")

let prop_recovery_never_applies_losers =
  let gen =
    QCheck.Gen.(
      small_list (pair (int_range 0 5) (oneofl [ `Commit; `Abort; `None ])))
  in
  QCheck.Test.make ~name:"recovery applies exactly the winners" ~count:200
    (QCheck.make gen)
    (fun txns ->
      (* Build a log where txn i writes key i; outcome per the tag. *)
      let log =
        List.concat
          (List.mapi
             (fun i (k, outcome) ->
               let t = txn (i + 1) in
               let base =
                 [ upd t (Printf.sprintf "k%d" k) (string_of_int i) (i + 1);
                   Log_record.Prepared { txn = t; participants = [ 0 ] } ]
               in
               match outcome with
               | `Commit -> base @ [ Log_record.Commit t ]
               | `Abort -> base @ [ Log_record.Abort t ]
               | `None -> base)
             txns)
      in
      let kv = Kv.create () in
      let o = Recovery.recover kv log in
      let winners = List.length o.committed in
      o.redone = winners)

(* --- Checkpoint ------------------------------------------------------ *)

(* Restore an uncorrupted checkpoint: the LSN replay resumes after, 0
   when there is no snapshot. *)
let restore cp kv =
  match Checkpoint.restore_validated cp kv with
  | Checkpoint.R_latest lsn -> lsn
  | Checkpoint.R_previous _ -> Alcotest.fail "fell back past an intact snapshot"
  | Checkpoint.R_none -> 0

let test_checkpoint_roundtrip () =
  let cp = Checkpoint.create () in
  let kv = Kv.create () in
  Kv.set kv ~key:"a" ~value:"1" ~version:1;
  Checkpoint.take cp ~kv ~lsn:10;
  Kv.set kv ~key:"a" ~value:"2" ~version:2;
  let kv2 = Kv.create () in
  let from = restore cp kv2 in
  Alcotest.(check int) "replay from" 10 from;
  Alcotest.(check int) "snapshot version" 1 (Kv.version kv2 "a");
  Alcotest.(check int) "count" 1 (Checkpoint.count cp)

let test_checkpoint_empty () =
  let cp = Checkpoint.create () in
  let kv = Kv.create () in
  Kv.set kv ~key:"junk" ~value:"x" ~version:1;
  let from = restore cp kv in
  Alcotest.(check int) "from scratch" 0 from;
  Alcotest.(check int) "cleared" 0 (Kv.size kv)

(* Full cycle: run updates through a WAL + checkpoint, crash, recover,
   and compare against the expected state. *)
let test_storage_crash_cycle () =
  let e = Engine.create () in
  let wal = Wal.create e ~force_latency:(Time.us 50) () in
  let cp = Checkpoint.create () in
  let kv = Kv.create () in
  let apply t key value version commit =
    ignore (Wal.append wal (upd t key value version));
    if commit then begin
      ignore (Wal.append wal (Log_record.Commit t));
      Wal.force wal (fun () -> Kv.set kv ~key ~value ~version)
    end
  in
  apply (txn 1) "a" "1" 1 true;
  Engine.run e;
  Checkpoint.take cp ~kv ~lsn:(Wal.durable_lsn wal);
  apply (txn 2) "b" "2" 1 true;
  Engine.run e;
  (* A transaction whose commit record never becomes durable. *)
  ignore (Wal.append wal (upd (txn 3) "c" "3" 1));
  Wal.crash wal;
  (* Restart: snapshot + durable suffix replay. *)
  let kv' = Kv.create () in
  let from = restore cp kv' in
  let suffix =
    List.filteri (fun i _ -> i >= from) (Wal.durable_records wal)
  in
  let o = Recovery.recover kv' suffix in
  Alcotest.(check bool) "a survived (checkpoint)" true (Kv.mem kv' "a");
  Alcotest.(check bool) "b survived (replay)" true (Kv.mem kv' "b");
  Alcotest.(check bool) "c lost (never committed)" false (Kv.mem kv' "c");
  Alcotest.(check int) "b redone" 1 o.redone

(* --- Storage faults --------------------------------------------------- *)

let test_torn_crash_truncates_cleanly () =
  let e = Engine.create () in
  let wal =
    Wal.create ~group_window:(Time.us 50) e
      ~force_latency:(Time.us 100) ()
  in
  ignore (Wal.append wal "a");
  ignore (Wal.append wal "b");
  ignore (Wal.append wal "c");
  Wal.force wal (fun () -> ());
  (* The window fires at t=50 and the 3-record cycle completes at t=150;
     crash at t=80 tears it so only one record reached the platter.  The
     other two survive on disk as garbage with broken checksums. *)
  ignore (Engine.schedule_at e (Time.us 80) (fun () -> Wal.crash ~torn:1 wal));
  Engine.run e;
  Alcotest.(check int) "durable rolled to torn point" 1 (Wal.durable_lsn wal);
  Alcotest.(check int) "garbage retained for the scan" 3 (Wal.length wal);
  let st = Wal.stats wal in
  Alcotest.(check int) "cycle counted torn, not lost" 1 st.st_torn;
  Alcotest.(check int) "not lost" 0 st.st_lost;
  Alcotest.(check int) "identity: started = completed + lost + torn"
    st.st_started
    (st.st_completed + st.st_lost + st.st_torn);
  (* Recovery scan: the tail is above the durable horizon, so this is a
     clean truncation — no durable data was lost. *)
  let r = Wal.scan wal in
  Alcotest.(check int) "two garbage records dropped" 2 r.Wal.sc_torn;
  Alcotest.(check int) "no durable loss" 0 r.Wal.sc_corrupt;
  Alcotest.(check int) "durable unchanged" 1 (Wal.durable_lsn wal);
  Alcotest.(check (list string)) "exactly the durable prefix" [ "a" ]
    (Wal.durable_records wal);
  let r2 = Wal.scan wal in
  Alcotest.(check int) "second scan finds nothing (torn)" 0 r2.Wal.sc_torn;
  Alcotest.(check int) "second scan finds nothing (corrupt)" 0 r2.Wal.sc_corrupt

let test_corruption_below_horizon_is_loud () =
  let e = Engine.create () in
  let wal = Wal.create e ~force_latency:(Time.us 10) () in
  ignore (Wal.append wal "a");
  ignore (Wal.append wal "b");
  ignore (Wal.append wal "c");
  Wal.force wal (fun () -> ());
  Engine.run e;
  Alcotest.(check int) "all durable" 3 (Wal.durable_lsn wal);
  (* Flip a record below the durable horizon: supposedly-stable data. *)
  Wal.corrupt_record wal ~lsn:2;
  let r = Wal.scan wal in
  Alcotest.(check int) "durable loss reported" 2 r.Wal.sc_corrupt;
  Alcotest.(check int) "not classified as torn" 0 r.Wal.sc_torn;
  (* The durable point must roll back so the corrupt records are never
     replayed as if they were good. *)
  Alcotest.(check int) "durable rolled back" 1 (Wal.durable_lsn wal);
  Alcotest.(check (list string)) "valid prefix only" [ "a" ]
    (Wal.durable_records wal);
  Alcotest.check_raises "cannot corrupt an unretained lsn"
    (Invalid_argument "Wal.corrupt_record: LSN not retained") (fun () ->
      Wal.corrupt_record wal ~lsn:9)

let test_checkpoint_corrupt_falls_back_to_previous () =
  let cp = Checkpoint.create () in
  let kv = Kv.create () in
  Kv.set kv ~key:"a" ~value:"1" ~version:1;
  Checkpoint.take cp ~kv ~lsn:5;
  Kv.set kv ~key:"a" ~value:"2" ~version:2;
  Checkpoint.take cp ~kv ~lsn:10;
  Checkpoint.corrupt cp;
  let kv' = Kv.create () in
  (match Checkpoint.restore_validated cp kv' with
  | Checkpoint.R_previous lsn ->
      Alcotest.(check int) "replay from the previous snapshot" 5 lsn;
      Alcotest.(check int) "previous content installed" 1 (Kv.version kv' "a")
  | Checkpoint.R_latest _ -> Alcotest.fail "installed a corrupt snapshot"
  | Checkpoint.R_none -> Alcotest.fail "previous snapshot was usable");
  Alcotest.(check (option int)) "previous lsn exposed for truncation floors"
    (Some 5) (Checkpoint.previous_lsn cp)

let test_checkpoint_corrupt_without_previous_replays_log () =
  let cp = Checkpoint.create () in
  let kv = Kv.create () in
  Kv.set kv ~key:"a" ~value:"1" ~version:1;
  Checkpoint.take cp ~kv ~lsn:5;
  Alcotest.(check bool) "no previous yet" false (Checkpoint.has_previous cp);
  Checkpoint.corrupt cp;
  let kv' = Kv.create () in
  Kv.set kv' ~key:"junk" ~value:"x" ~version:1;
  (match Checkpoint.restore_validated cp kv' with
  | Checkpoint.R_none -> ()
  | Checkpoint.R_latest _ | Checkpoint.R_previous _ ->
      Alcotest.fail "expected full log replay");
  Alcotest.(check int) "store cleared for full replay" 0 (Kv.size kv')

let test_checkpoint_take_never_demotes_corrupt_latest () =
  (* A corrupt latest must not be demoted to previous by the next take:
     that would break the fallback chain (double corruption would then
     silently install garbage or lose the floor). *)
  let cp = Checkpoint.create () in
  let kv = Kv.create () in
  Kv.set kv ~key:"a" ~value:"1" ~version:1;
  Checkpoint.take cp ~kv ~lsn:5;
  Kv.set kv ~key:"a" ~value:"2" ~version:2;
  Checkpoint.take cp ~kv ~lsn:10;
  Checkpoint.corrupt cp;
  Kv.set kv ~key:"a" ~value:"3" ~version:3;
  Checkpoint.take cp ~kv ~lsn:15;
  Alcotest.(check (option int)) "previous is still the valid lsn-5 snapshot"
    (Some 5) (Checkpoint.previous_lsn cp);
  let kv' = Kv.create () in
  match Checkpoint.restore_validated cp kv' with
  | Checkpoint.R_latest lsn -> Alcotest.(check int) "fresh latest valid" 15 lsn
  | Checkpoint.R_previous _ | Checkpoint.R_none ->
      Alcotest.fail "fresh snapshot should be installable"

(* Any append/force schedule, any crash time, any torn point: after the
   crash and the recovery scan, the durable log is exactly a prefix of
   what was appended, every acknowledged force is inside it, the cycle
   accounting identity holds, and a re-crash plus re-scan is a no-op
   (recovery is idempotent under double crashes). *)
let prop_torn_scan_yields_durable_prefix =
  let gen =
    QCheck.Gen.(
      QCheck.Gen.triple (int_range 1 12) (int_range 0 400) (int_range 0 4))
  in
  QCheck.Test.make ~name:"torn crash + scan = longest valid durable prefix"
    ~count:500 (QCheck.make gen)
    (fun (n, crash_us, keep) ->
      let e = Engine.create () in
      let wal =
        Wal.create ~group_window:(Time.us 30) e
          ~force_latency:(Time.us 60) ()
      in
      let recs = List.init n (fun i -> Printf.sprintf "r%d" (i + 1)) in
      let acked = ref 0 in
      List.iteri
        (fun i r ->
          ignore
            (Engine.schedule_at e (Time.us (i * 25)) (fun () ->
                 let lsn = Wal.append wal r in
                 Wal.force wal (fun () -> acked := max !acked lsn))))
        recs;
      Engine.run ~until:(Time.us crash_us) e;
      Wal.crash ~torn:keep wal;
      ignore (Wal.scan wal);
      let d = Wal.durable_lsn wal in
      let prefix = List.filteri (fun i _ -> i < d) recs in
      let st = Wal.stats wal in
      let ok =
        Wal.durable_records wal = prefix
        && !acked <= d
        && st.st_started = st.st_completed + st.st_lost + st.st_torn
        && st.st_pending = 0
      in
      (* Crash again during "recovery" and re-scan: both must be no-ops
         on the already-truncated log. *)
      Wal.crash ~torn:keep wal;
      let again = Wal.scan wal in
      ok
      && again.Wal.sc_torn = 0
      && again.Wal.sc_corrupt = 0
      && Wal.durable_records wal = prefix)

let () =
  Alcotest.run "storage"
    [
      ( "kv",
        [
          Alcotest.test_case "basic" `Quick test_kv_basic;
          Alcotest.test_case "snapshot/restore" `Quick test_kv_snapshot_restore;
          QCheck_alcotest.to_alcotest prop_kv_snapshot_roundtrip;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append and force" `Quick test_wal_append_and_force;
          Alcotest.test_case "group commit" `Quick test_wal_group_commit;
          Alcotest.test_case "group window coalesces" `Quick
            test_wal_group_window_coalesces;
          Alcotest.test_case "crash with window armed" `Quick
            test_wal_crash_between_enqueue_and_flush;
          Alcotest.test_case "crash mid cycle counts lost" `Quick
            test_wal_crash_mid_cycle_counts_lost;
          Alcotest.test_case "force when durable" `Quick
            test_wal_force_when_already_durable;
          Alcotest.test_case "crash loses volatile suffix" `Quick
            test_wal_crash_loses_volatile_suffix;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "winners only" `Quick test_recovery_winners_only;
          Alcotest.test_case "in-doubt classification" `Quick
            test_recovery_in_doubt;
          Alcotest.test_case "idempotent" `Quick test_recovery_idempotent;
          Alcotest.test_case "last write wins" `Quick
            test_recovery_last_write_wins;
          QCheck_alcotest.to_alcotest prop_recovery_never_applies_losers;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "empty" `Quick test_checkpoint_empty;
          Alcotest.test_case "crash cycle" `Quick test_storage_crash_cycle;
        ] );
      ( "storage faults",
        [
          Alcotest.test_case "torn crash truncates cleanly" `Quick
            test_torn_crash_truncates_cleanly;
          Alcotest.test_case "corruption below horizon is loud" `Quick
            test_corruption_below_horizon_is_loud;
          Alcotest.test_case "corrupt checkpoint falls back" `Quick
            test_checkpoint_corrupt_falls_back_to_previous;
          Alcotest.test_case "corrupt-only checkpoint means full replay" `Quick
            test_checkpoint_corrupt_without_previous_replays_log;
          Alcotest.test_case "take never demotes a corrupt latest" `Quick
            test_checkpoint_take_never_demotes_corrupt_latest;
          QCheck_alcotest.to_alcotest prop_torn_scan_yields_durable_prefix;
        ] );
    ]
