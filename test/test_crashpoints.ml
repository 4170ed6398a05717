(* Tests for the crash-point sweep harness, plus minimized site-level
   regressions for the bugs the sweep flushed out.  The full matrix runs
   from bin/crashpoints.exe (and `make crash`); here a small slice keeps
   the suite fast while still exercising discovery, injection, auditing,
   and determinism end to end. *)

open Rt_sim
open Rt_core
module Sweep = Rt_crash.Crash_sweep
module P = Rt_commit.Protocol
module Counter = Rt_metrics.Counter

let find_protocol name =
  (name, List.assoc name Sweep.default_protocols)

(* --- the harness itself -------------------------------------------------- *)

let test_mini_sweep_clean () =
  (* One protocol, one cluster size: every discovered crash point at the
     coordinator and one participant must audit clean. *)
  let report =
    Sweep.sweep ~seed:0 ~protocols:[ find_protocol "2PC-PrA" ] ~ns:[ 3 ] ()
  in
  Alcotest.(check int) "no violations" 0 (List.length report.Sweep.rp_violations);
  Alcotest.(check bool) "cases discovered" true (report.Sweep.rp_cases > 10)

let test_sweep_discovers_wal_points () =
  (* The instrumented WAL must announce both sides of a forced write:
     before the records are durable and after. *)
  let _, protocol = find_protocol "2PC-PrN" in
  let stream = Sweep.discover ~protocol ~n:3 ~seed:0 () in
  let points = List.map (fun (_, p, _) -> p) stream in
  Alcotest.(check bool) "volatile side seen" true
    (List.mem "wal:force-volatile" points);
  Alcotest.(check bool) "durable side seen" true
    (List.mem "wal:force-durable" points);
  (* And the protocol-step boundaries of both roles. *)
  Alcotest.(check bool) "participant steps seen" true
    (List.exists (fun p -> String.length p > 5 && String.sub p 0 5 = "part:") points);
  Alcotest.(check bool) "coordinator steps seen" true
    (List.exists (fun p -> String.length p > 6 && String.sub p 0 6 = "coord:") points)

let test_sweep_deterministic () =
  (* Same seed, same report — byte for byte. *)
  let run () =
    Sweep.render
      (Sweep.sweep ~seed:7 ~protocols:[ find_protocol "2PC-PrC" ] ~ns:[ 3 ] ())
  in
  Alcotest.(check string) "byte-identical" (run ()) (run ())

(* --- minimized regressions ------------------------------------------------ *)

(* A standalone participant site driven by hand: no Site.start means no
   heartbeats, so the engine drains exactly when every protocol timer is
   cancelled — which is what the orphan-sweep regression is about. *)
let standalone_site ?(config = Config.default ~sites:2 ()) () =
  let engine = Engine.create ~seed:0 () in
  let sent = ref [] in
  let site =
    Site.create ~engine ~id:1 ~config
      ~send:(fun ~dst msg -> sent := (dst, msg) :: !sent)
      ~counters:(Counter.create ())
  in
  (engine, site, fun () -> List.rev !sent)

let txn = Rt_types.Ids.Txn_id.make ~origin:0 ~seq:1 ~start_ts:Time.zero

let vote_req =
  Msg.txn_msg txn
    (Msg.Commit_msg
       {
         pmsg = P.Vote_req;
         prepare =
           Some
             {
               Msg.writes = [ ("k", "v", 1) ];
               participants = [ 0; 1 ];
               presumed_down = [];
             };
       })

let decision d = Msg.txn_msg txn (Msg.Commit_msg { pmsg = P.Decision_msg d; prepare = None })

let commit_replies sent =
  List.filter_map
    (fun (dst, (m : Msg.t)) ->
      match m.payload with
      | Msg.Commit_msg { pmsg; _ } -> Some (dst, pmsg)
      | _ -> None)
    sent

let test_orphan_sweep_cancelled_on_resolve () =
  (* Regression: the orphan sweep used to re-arm itself unconditionally
     once a machine attached, so a fully resolved participant kept one
     timer alive forever.  After resolution the engine must drain. *)
  let engine, site, _sent = standalone_site () in
  ignore
    (Engine.schedule_at engine (Time.ms 1) (fun () ->
         Site.receive site ~src:0 vote_req));
  ignore
    (Engine.schedule_at engine (Time.ms 10) (fun () ->
         Site.receive site ~src:0 (decision P.Abort)));
  Engine.run ~until:(Time.sec 120) engine;
  Alcotest.(check int) "engine drained: no orphan-sweep respawn" 0
    (Engine.live_pending engine);
  Alcotest.(check int) "no protocol timers" 0
    (Site.pending_protocol_timers site);
  Alcotest.(check int) "no locks" 0 (Site.held_locks site)

let test_orphan_window_releases_locks () =
  (* The sweep window is ten decision waits, 500 ms.  Once it passes, a
     machine-less context is doomed; its locks are released and the
     context resolves as a genuine local abort. *)
  let engine, site, _sent = standalone_site () in
  (* A lock-acquiring write request, but the commit protocol never
     arrives: the context stays machine-less. *)
  ignore
    (Engine.schedule_at engine (Time.ms 1) (fun () ->
         Site.receive site ~src:0
           (Msg.txn_msg txn (Msg.Write_req { key = "k"; value = "v" }))));
  Engine.run ~until:(Time.ms 450) engine;
  Alcotest.(check int) "held inside the window" 1 (Site.held_locks site);
  Engine.run ~until:(Time.ms 600) engine;
  Alcotest.(check int) "doomed and released" 0 (Site.held_locks site);
  Engine.run ~until:(Time.sec 120) engine;
  Alcotest.(check int) "engine drained" 0 (Engine.live_pending engine)

let test_unknown_decision_req_answers_unknown () =
  (* Regression: a non-origin site asked about a transaction it has no
     memory of used to invent an authoritative abort — under the
     read-only optimization a forgotten participant is exactly such a
     site, and the transaction may well have committed.  It must answer
     Decision_unknown (and not pledge anything). *)
  let engine, site, sent = standalone_site () in
  ignore
    (Engine.schedule_at engine (Time.ms 1) (fun () ->
         Site.receive site ~src:0
           (Msg.txn_msg txn (Msg.Commit_msg { pmsg = P.Decision_req; prepare = None }))));
  Engine.run ~until:(Time.sec 1) engine;
  (match commit_replies (sent ()) with
  | [ (0, P.Decision_unknown) ] -> ()
  | replies ->
      Alcotest.failf "expected Decision_unknown to site 0, got %d replies: %s"
        (List.length replies)
        (String.concat "; "
           (List.map
              (fun (dst, pmsg) ->
                Format.asprintf "%d:%a" dst P.pp_msg pmsg)
              replies)));
  Alcotest.(check (list reject)) "no decision recorded" []
    (List.map (fun _ -> ()) (Site.decided_txns site))

let test_memoryless_decision_msg_is_acked () =
  (* Regression: a decision reaching a site with no memory of the
     transaction (recovered, log lost before prepare was forced) used to
     be dropped, so an ack-collecting coordinator resent forever.  The
     site must adopt the outcome and acknowledge it. *)
  let engine, site, sent = standalone_site () in
  ignore
    (Engine.schedule_at engine (Time.ms 1) (fun () ->
         Site.receive site ~src:0 (decision P.Commit)));
  Engine.run ~until:(Time.sec 1) engine;
  (match commit_replies (sent ()) with
  | [ (0, P.Decision_ack) ] -> ()
  | replies ->
      Alcotest.failf "expected Decision_ack to site 0, got %d replies"
        (List.length replies));
  match Site.decided_txns site with
  | [ (t, d) ]
    when Rt_types.Ids.Txn_id.equal t txn && P.decision_equal d P.Commit ->
      ()
  | ds -> Alcotest.failf "expected one Commit outcome, got %d" (List.length ds)

(* Regression: Paxos Commit resolves F per transaction, so one whose
   participant set holds no acceptor besides its origin runs degenerate
   (effective F = 0) whatever F is configured.  Its origin, crashed and
   recovered with no memory of it, must then presume abort exactly as
   2PC-PrN's would.  That presumption used to fire only for a configured
   F of exactly 0, so under an unset or larger F the other participant
   stayed uncertain, holding its lock for good.  Five sites, two range
   shards split at "b" with two replicas each: a write of "a" at site 0
   involves sites 0 and 1 only.  Site 0 is crashed at every point it
   reaches and recovered 100 ms later. *)
let degenerate_paxos_origin_crash f () =
  let config =
    {
      (Config.default ~sites:5 ()) with
      commit_protocol = Config.Paxos_commit { f };
      placement =
        Some
          (Rt_placement.Placement.create
             ~map:(Rt_placement.Shard_map.range ~boundaries:[ "b" ])
             ~sites:5 ~degree:2 ());
    }
  in
  let ops = [ Rt_workload.Mix.Write ("a", "1") ] in
  let run inject =
    let cluster = Cluster.create config in
    let observed = inject cluster in
    ignore
      (Engine.schedule_at (Cluster.engine cluster) (Time.ms 1) (fun () ->
           Cluster.submit cluster ~site:0 ~ops ~k:(fun _ -> ())));
    Cluster.run ~until:(Time.sec 3) cluster;
    (cluster, observed)
  in
  let _, points = run Failure.observe_crash_points_sized in
  let points = List.filter (fun (site, _, _) -> site = 0) (points ()) in
  Alcotest.(check bool) "crash points reached" true (List.length points >= 10);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (_, point, _) ->
      let occurrence =
        1 + Option.value (Hashtbl.find_opt seen point) ~default:0
      in
      Hashtbl.replace seen point occurrence;
      let cluster, injected =
        run (fun cluster ->
            Failure.crash_at_point cluster ~site:0 ~point ~occurrence
              ~recover_after:(Time.ms 100) ())
      in
      Alcotest.(check bool) (point ^ " reached") true (injected ());
      match
        Audit.standard ~writes:[ ("a", "1") ] ~settle:(Time.sec 1) cluster
      with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "crash at %s#%d: %s: %s" point occurrence v.Audit.inv
            v.Audit.detail)
    points

let () =
  Alcotest.run "crashpoints"
    [
      ( "harness",
        [
          Alcotest.test_case "mini sweep is clean" `Quick test_mini_sweep_clean;
          Alcotest.test_case "discovers wal + step points" `Quick
            test_sweep_discovers_wal_points;
          Alcotest.test_case "deterministic report" `Quick
            test_sweep_deterministic;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "orphan sweep cancelled on resolve" `Quick
            test_orphan_sweep_cancelled_on_resolve;
          Alcotest.test_case "orphan window releases locks" `Quick
            test_orphan_window_releases_locks;
          Alcotest.test_case "unknown decision-req answers unknown" `Quick
            test_unknown_decision_req_answers_unknown;
          Alcotest.test_case "memoryless decision is acked" `Quick
            test_memoryless_decision_msg_is_acked;
          Alcotest.test_case "amnesiac origin: paxos F unset"
            `Quick (degenerate_paxos_origin_crash None);
          Alcotest.test_case "amnesiac origin: paxos F=1"
            `Quick (degenerate_paxos_origin_crash (Some 1));
        ] );
    ]
