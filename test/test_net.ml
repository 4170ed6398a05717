(* Tests for the simulated network: delivery, latency, FIFO links, faults,
   partitions, and statistics accounting. *)

open Rt_sim
open Rt_net

let fixed_net ?(nodes = 3) ?(latency = Time.ms 1) engine =
  Net.create engine ~nodes ~default:(Net.reliable_link (Latency.Fixed latency))

let test_basic_delivery () =
  let e = Engine.create () in
  let net = fixed_net e in
  let got = ref [] in
  Net.register net 1 (fun ~src msg -> got := (src, msg) :: !got);
  Net.send net ~src:0 ~dst:1 "hello";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got;
  Alcotest.(check int) "delivery time is latency" (Time.ms 1) (Engine.now e)

let test_unregistered_drops () =
  let e = Engine.create () in
  let net = fixed_net e in
  Net.send net ~src:0 ~dst:1 "x";
  Engine.run e;
  Alcotest.(check int) "dropped" 1 (Net.Stats.dropped (Net.stats net));
  Alcotest.(check int) "counted as partition loss" 1
    (Net.stats net).dropped_partition

let test_latency_sampling () =
  let e = Engine.create ~seed:5 () in
  let net =
    Net.create e ~nodes:2
      ~default:(Net.reliable_link (Latency.Uniform (Time.ms 1, Time.ms 5)))
  in
  let times = ref [] in
  Net.register net 1 (fun ~src:_ _ -> times := Engine.now e :: !times);
  (* Non-FIFO check of raw sampling: use separate sends spaced out. *)
  for i = 0 to 99 do
    ignore
      (Engine.schedule_at e (Time.ms (10 * i)) (fun () ->
           Net.send net ~src:0 ~dst:1 "m"))
  done;
  Engine.run e;
  List.iteri
    (fun i t ->
      let base = Time.ms (10 * (99 - i)) in
      let d = Time.sub t base in
      Alcotest.(check bool)
        "latency within bounds" true
        Time.(d >= Time.ms 1 && d <= Time.ms 5))
    !times

let test_fifo_ordering () =
  let e = Engine.create ~seed:1 () in
  let net =
    Net.create e ~nodes:2
      ~default:(Net.reliable_link (Latency.Uniform (Time.ms 1, Time.ms 50)))
  in
  let got = ref [] in
  Net.register net 1 (fun ~src:_ msg -> got := msg :: !got);
  for i = 0 to 19 do
    Net.send net ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO preserved"
    (List.init 20 (fun i -> i))
    (List.rev !got)

let test_drop_probability () =
  let e = Engine.create ~seed:3 () in
  let link = { Net.latency = Latency.Fixed (Time.us 10); drop = 0.5; duplicate = 0. ; overhead = Time.zero } in
  let net = Net.create e ~nodes:2 ~default:link in
  let got = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr got);
  let n = 2000 in
  for _ = 1 to n do
    Net.send net ~src:0 ~dst:1 ()
  done;
  Engine.run e;
  let rate = float_of_int !got /. float_of_int n in
  Alcotest.(check bool) "~half delivered" true (rate > 0.45 && rate < 0.55);
  Alcotest.(check int) "sent counted" n (Net.stats net).sent;
  Alcotest.(check int) "conservation" n
    ((Net.stats net).delivered + Net.Stats.dropped (Net.stats net));
  Alcotest.(check int) "all losses are link losses" 0
    (Net.stats net).dropped_partition

let test_dropped_split_accounting () =
  (* One loss of each kind: a link-fault drop and a partition drop must
     land in separate counters, with [Stats.dropped] as their sum. *)
  let e = Engine.create ~seed:7 () in
  let net = fixed_net e in
  Net.register net 1 (fun ~src:_ _ -> ());
  Net.set_link net ~src:0 ~dst:1
    { Net.latency = Latency.Fixed (Time.us 10); drop = 1.0; duplicate = 0. ; overhead = Time.zero };
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "link loss counted" 1 (Net.stats net).dropped_link;
  Alcotest.(check int) "no partition loss yet" 0
    (Net.stats net).dropped_partition;
  Net.clear_link net ~src:0 ~dst:1;
  Partition.split (Net.partition net) [ [ 0 ]; [ 1; 2 ] ];
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "partition loss counted" 1
    (Net.stats net).dropped_partition;
  Alcotest.(check int) "link losses unchanged" 1 (Net.stats net).dropped_link;
  Alcotest.(check int) "derived total" 2 (Net.Stats.dropped (Net.stats net))

let test_duplicate_stats () =
  let e = Engine.create ~seed:4 () in
  let link = { Net.latency = Latency.Fixed (Time.us 10); drop = 0.; duplicate = 1.0 ; overhead = Time.zero } in
  let net = Net.create e ~nodes:2 ~default:link in
  let got = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr got);
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "one send" 1 (Net.stats net).sent;
  Alcotest.(check int) "one duplication" 1 (Net.stats net).duplicated;
  Alcotest.(check int) "both copies delivered" 2 (Net.stats net).delivered;
  Alcotest.(check int) "nothing dropped" 0 (Net.Stats.dropped (Net.stats net))

let test_fifo_under_duplication () =
  (* On a FIFO link a duplicate must land immediately after its original:
     sending 0..9 with duplicate=1.0 yields 0,0,1,1,...,9,9. *)
  let e = Engine.create ~seed:2 () in
  let link =
    { Net.latency = Latency.Uniform (Time.ms 1, Time.ms 20);
      drop = 0.; duplicate = 1.0; overhead = Time.zero }
  in
  let net = Net.create e ~nodes:2 ~default:link in
  let got = ref [] in
  Net.register net 1 (fun ~src:_ msg -> got := msg :: !got);
  for i = 0 to 9 do
    Net.send net ~src:0 ~dst:1 i
  done;
  Engine.run e;
  let expected = List.concat_map (fun i -> [ i; i ]) (List.init 10 Fun.id) in
  Alcotest.(check (list int)) "contiguous duplicates, FIFO preserved"
    expected (List.rev !got)

let test_duplicate_probability () =
  let e = Engine.create ~seed:4 () in
  let link = { Net.latency = Latency.Fixed (Time.us 10); drop = 0.; duplicate = 1.0 ; overhead = Time.zero } in
  let net = Net.create e ~nodes:2 ~default:link in
  let got = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr got);
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "delivered twice" 2 !got

let test_partition_blocks_and_heals () =
  let e = Engine.create () in
  let net = fixed_net e in
  let got = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr got);
  Partition.split (Net.partition net) [ [ 0 ]; [ 1; 2 ] ];
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "blocked by partition" 0 !got;
  Partition.heal (Net.partition net);
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "healed" 1 !got

let test_partition_in_flight_loss () =
  let e = Engine.create () in
  let net = fixed_net ~latency:(Time.ms 10) e in
  let got = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr got);
  Net.send net ~src:0 ~dst:1 ();
  (* Partition forms while the message is in flight. *)
  ignore
    (Engine.schedule_after e (Time.ms 5) (fun () ->
         Partition.split (Net.partition net) [ [ 0 ]; [ 1; 2 ] ]));
  Engine.run e;
  Alcotest.(check int) "in-flight message lost" 0 !got

let test_partition_within_group_ok () =
  let e = Engine.create () in
  let net = fixed_net e in
  let got = ref 0 in
  Net.register net 2 (fun ~src:_ _ -> incr got);
  Partition.split (Net.partition net) [ [ 0 ]; [ 1; 2 ] ];
  Net.send net ~src:1 ~dst:2 ();
  Engine.run e;
  Alcotest.(check int) "same-side delivery works" 1 !got

let test_broadcast () =
  let e = Engine.create () in
  let net = fixed_net ~nodes:4 e in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Net.register net i (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Net.broadcast net ~src:1 ();
  Engine.run e;
  Alcotest.(check (array int)) "all but source" [| 1; 0; 1; 1 |] got

let test_link_override () =
  let e = Engine.create () in
  let net = fixed_net ~nodes:2 ~latency:(Time.ms 1) e in
  Net.set_link net ~src:0 ~dst:1
    (Net.reliable_link (Latency.Fixed (Time.ms 42)));
  let at = ref Time.zero in
  Net.register net 1 (fun ~src:_ _ -> at := Engine.now e);
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "override used" (Time.ms 42) !at

let test_one_way_sever () =
  let e = Engine.create () in
  let net = fixed_net e in
  let at1 = ref 0 and at0 = ref 0 in
  Net.register net 0 (fun ~src:_ _ -> incr at0);
  Net.register net 1 (fun ~src:_ _ -> incr at1);
  Partition.sever (Net.partition net) ~src:0 ~dst:1;
  Net.send net ~src:0 ~dst:1 ();
  Net.send net ~src:1 ~dst:0 ();
  Engine.run e;
  Alcotest.(check int) "severed direction lost" 0 !at1;
  Alcotest.(check int) "reverse direction delivers" 1 !at0;
  Alcotest.(check int) "loss counted as partition" 1
    (Net.stats net).dropped_partition;
  Partition.restore (Net.partition net) ~src:0 ~dst:1;
  Net.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "restored" 1 !at1

let test_sever_in_flight_loss () =
  (* Reachability is re-checked at delivery, so a message already in the
     air when its direction is severed is lost. *)
  let e = Engine.create () in
  let net = fixed_net ~latency:(Time.ms 10) e in
  let got = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr got);
  Net.send net ~src:0 ~dst:1 ();
  ignore
    (Engine.schedule_after e (Time.ms 5) (fun () ->
         Partition.sever (Net.partition net) ~src:0 ~dst:1));
  Engine.run e;
  Alcotest.(check int) "in-flight message lost" 0 !got

let test_partition_module () =
  let p = Partition.create ~nodes:5 in
  Alcotest.(check bool) "initially connected" true (Partition.connected p 0 4);
  Alcotest.(check bool) "not split" false (Partition.is_split p);
  Partition.split p [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "0-1 together" true (Partition.connected p 0 1);
  Alcotest.(check bool) "0-2 apart" false (Partition.connected p 0 2);
  (* Node 4 stays in component 0, apart from both named groups. *)
  Alcotest.(check bool) "4 apart from 0" false (Partition.connected p 4 0);
  Alcotest.(check bool) "split" true (Partition.is_split p);
  Partition.isolate p 1;
  Alcotest.(check bool) "isolated" false (Partition.connected p 0 1);
  Partition.heal p;
  Alcotest.(check bool) "healed" true (Partition.connected p 0 3);
  (* Directional edges: sever one way only. *)
  Partition.sever p ~src:0 ~dst:1;
  Alcotest.(check bool) "0->1 unreachable" false
    (Partition.reachable p ~src:0 ~dst:1);
  Alcotest.(check bool) "1->0 still reachable" true
    (Partition.reachable p ~src:1 ~dst:0);
  Alcotest.(check bool) "connected needs both ways" false
    (Partition.connected p 0 1);
  Alcotest.(check bool) "severed edge counts as split" true
    (Partition.is_split p);
  Partition.restore p ~src:0 ~dst:1;
  Alcotest.(check bool) "restored" true (Partition.connected p 0 1);
  Alcotest.(check bool) "restore clears split" false (Partition.is_split p);
  Partition.sever p ~src:2 ~dst:3;
  Partition.heal p;
  Alcotest.(check bool) "heal clears severed edges" true
    (Partition.connected p 2 3);
  Alcotest.check_raises "double listing rejected"
    (Invalid_argument "Partition.split: node 1 listed twice") (fun () ->
      Partition.split p [ [ 1 ]; [ 1; 2 ] ])

(* --- per-link batching ---------------------------------------------- *)

let batched_net ?default ~window e =
  let default =
    match default with
    | Some l -> l
    | None -> Net.reliable_link (Latency.Fixed (Time.us 10))
  in
  Net.create ~batch:(Time.us window) e ~nodes:3 ~default

let test_batch_fifo_one_envelope () =
  let e = Engine.create () in
  let net = batched_net ~window:50 e in
  let got = ref [] in
  Net.register net 1 (fun ~src:_ msg -> got := msg :: !got);
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:0 ~dst:1 "b";
  Net.send net ~src:0 ~dst:1 "c";
  Alcotest.(check (list string))
    "queued in send order" [ "a"; "b"; "c" ]
    (Net.pending net ~src:0 ~dst:1);
  Engine.run e;
  Alcotest.(check (list string)) "FIFO within envelope" [ "c"; "b"; "a" ] !got;
  let s = Net.stats net in
  Alcotest.(check int) "one wire envelope" 1 s.envelopes;
  Alcotest.(check int) "per-message sent" 3 s.sent;
  Alcotest.(check int) "per-message delivered" 3 s.delivered;
  Alcotest.(check int) "flush at window + latency" (Time.us 60) (Engine.now e)

let test_batch_drop_loses_whole_envelope () =
  let e = Engine.create ~seed:4 () in
  let net = batched_net ~window:50 e in
  Net.set_link net ~src:0 ~dst:1
    { Net.latency = Latency.Fixed (Time.us 10); drop = 1.0; duplicate = 0.;
      overhead = Time.zero };
  let got = ref [] in
  Net.register net 1 (fun ~src msg -> got := (src, msg) :: !got);
  (* Three messages on the faulty link, two on a clean one: the one drop
     roll for the 0->1 envelope loses exactly its contents. *)
  Net.send net ~src:0 ~dst:1 "x";
  Net.send net ~src:0 ~dst:1 "y";
  Net.send net ~src:0 ~dst:1 "z";
  Net.send net ~src:2 ~dst:1 "u";
  Net.send net ~src:2 ~dst:1 "v";
  Engine.run e;
  Alcotest.(check (list (pair int string)))
    "clean link unaffected" [ (2, "v"); (2, "u") ] !got;
  let s = Net.stats net in
  Alcotest.(check int) "all envelope contents lost" 3 s.dropped_link;
  Alcotest.(check int) "only the clean envelope flew" 1 s.envelopes

let test_batch_duplicate_repeats_envelope () =
  let e = Engine.create ~seed:4 () in
  let net = batched_net ~window:50 e in
  Net.set_link net ~src:0 ~dst:1
    { Net.latency = Latency.Fixed (Time.us 10); drop = 0.; duplicate = 1.0;
      overhead = Time.zero };
  let got = ref [] in
  Net.register net 1 (fun ~src:_ msg -> got := msg :: !got);
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:0 ~dst:1 "b";
  Engine.run e;
  Alcotest.(check (list string))
    "whole envelope delivered twice, FIFO both times"
    [ "a"; "b"; "a"; "b" ] (List.rev !got);
  let s = Net.stats net in
  Alcotest.(check int) "two wire envelopes" 2 s.envelopes;
  Alcotest.(check int) "per-message duplicate tally" 2 s.duplicated

let test_batch_sever_inside_window () =
  let e = Engine.create () in
  let net = batched_net ~window:50 e in
  let got = ref [] in
  Net.register net 1 (fun ~src:_ msg -> got := msg :: !got);
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:0 ~dst:1 "b";
  (* The link is severed after the sends but before the window flushes:
     the whole envelope dies before reaching the wire. *)
  ignore
    (Engine.schedule_after e (Time.us 20) (fun () ->
         Partition.sever (Net.partition net) ~src:0 ~dst:1));
  Engine.run e;
  Alcotest.(check (list string)) "nothing delivered" [] !got;
  let s = Net.stats net in
  Alcotest.(check int) "counted as partition loss" 2 s.dropped_partition;
  Alcotest.(check int) "no envelope scheduled" 0 s.envelopes

let test_egress_overhead_serializes () =
  let e = Engine.create () in
  let net =
    Net.create e ~nodes:3
      ~default:
        (Net.reliable_link ~overhead:(Time.us 30) (Latency.Fixed (Time.us 10)))
  in
  let times = ref [] in
  let handler ~src:_ _ = times := Engine.now e :: !times in
  Net.register net 1 handler;
  Net.register net 2 handler;
  (* Two sends from node 0 at t=0, to different destinations: they
     serialize through 0's egress port (depart at 30 and 60), then each
     takes the 10us propagation. *)
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:0 ~dst:2 "b";
  Engine.run e;
  Alcotest.(check (list int))
    "arrivals reflect serialized departures" [ Time.us 40; Time.us 70 ]
    (List.rev !times);
  Alcotest.(check int) "two envelopes" 2 (Net.stats net).envelopes

let test_latency_mean () =
  Alcotest.(check int) "fixed mean" (Time.ms 3) (Latency.mean (Latency.Fixed (Time.ms 3)));
  Alcotest.(check int) "uniform mean" (Time.ms 3)
    (Latency.mean (Latency.Uniform (Time.ms 2, Time.ms 4)));
  Alcotest.(check int) "exp mean" (Time.ms 5)
    (Latency.mean (Latency.Exponential { min = Time.ms 1; mean = Time.ms 5 }))

let prop_exponential_latency_positive =
  QCheck.Test.make ~name:"exponential latency respects min" ~count:200
    QCheck.(pair small_int small_int)
    (fun (seed, min_ms) ->
      let min_ms = 1 + (min_ms mod 10) in
      let rng = Rng.create ~seed in
      let l =
        Latency.Exponential { min = Time.ms min_ms; mean = Time.ms (min_ms * 3) }
      in
      let ok = ref true in
      for _ = 1 to 50 do
        if Latency.sample l rng < Time.ms min_ms then ok := false
      done;
      !ok)

let () =
  Alcotest.run "net"
    [
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_basic_delivery;
          Alcotest.test_case "unregistered drops" `Quick test_unregistered_drops;
          Alcotest.test_case "latency sampling" `Quick test_latency_sampling;
          Alcotest.test_case "fifo" `Quick test_fifo_ordering;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "link override" `Quick test_link_override;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop" `Quick test_drop_probability;
          Alcotest.test_case "duplicate" `Quick test_duplicate_probability;
          Alcotest.test_case "dropped split" `Quick test_dropped_split_accounting;
          Alcotest.test_case "duplicate stats" `Quick test_duplicate_stats;
          Alcotest.test_case "fifo under duplication" `Quick
            test_fifo_under_duplication;
        ] );
      ( "partition",
        [
          Alcotest.test_case "blocks and heals" `Quick
            test_partition_blocks_and_heals;
          Alcotest.test_case "in-flight loss" `Quick
            test_partition_in_flight_loss;
          Alcotest.test_case "same side ok" `Quick
            test_partition_within_group_ok;
          Alcotest.test_case "one-way sever" `Quick test_one_way_sever;
          Alcotest.test_case "sever in-flight loss" `Quick
            test_sever_in_flight_loss;
          Alcotest.test_case "partition module" `Quick test_partition_module;
        ] );
      ( "batching",
        [
          Alcotest.test_case "one envelope, FIFO" `Quick
            test_batch_fifo_one_envelope;
          Alcotest.test_case "drop loses whole envelope" `Quick
            test_batch_drop_loses_whole_envelope;
          Alcotest.test_case "duplicate repeats envelope" `Quick
            test_batch_duplicate_repeats_envelope;
          Alcotest.test_case "sever inside window" `Quick
            test_batch_sever_inside_window;
          Alcotest.test_case "egress overhead serializes" `Quick
            test_egress_overhead_serializes;
        ] );
      ( "latency",
        [
          Alcotest.test_case "means" `Quick test_latency_mean;
          QCheck_alcotest.to_alcotest prop_exponential_latency_positive;
        ] );
    ]
