(* Tests for the discrete-event engine: clock semantics, ordering,
   cancellation, determinism of the RNG, and heap behaviour. *)

open Rt_sim

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000 (Time.sec 1);
  Alcotest.(check int) "of_float_s" 1_500_000_000 (Time.of_float_s 1.5);
  Alcotest.(check (float 1e-9)) "to_float_s" 0.5 (Time.to_float_s (Time.ms 500))

let test_events_fire_in_time_order () =
  let e = Engine.create () in
  let order = ref [] in
  let tag name () = order := name :: !order in
  ignore (Engine.schedule_after e (Time.ms 30) (tag "c"));
  ignore (Engine.schedule_after e (Time.ms 10) (tag "a"));
  ignore (Engine.schedule_after e (Time.ms 20) (tag "b"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !order)

let test_same_instant_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 9 do
    ignore
      (Engine.schedule_after e (Time.ms 5) (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at same instant"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule_after e (Time.ms 7) (fun () -> seen := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "clock at event time" (Time.ms 7) !seen

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule_after e (Time.ms 1) (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_run_until_horizon () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule_after e (Time.ms 10) (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule_after e (Time.ms 30) (fun () -> fired := 2 :: !fired));
  Engine.run ~until:(Time.ms 20) e;
  Alcotest.(check (list int)) "only first fired" [ 1 ] !fired;
  Alcotest.(check int) "clock at horizon" (Time.ms 20) (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "second fired later" [ 2; 1 ] !fired

let test_nested_scheduling () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain n () =
    incr count;
    if n > 0 then ignore (Engine.schedule_after e (Time.ms 1) (chain (n - 1)))
  in
  ignore (Engine.schedule_after e Time.zero (chain 99));
  Engine.run e;
  Alcotest.(check int) "chain length" 100 !count;
  Alcotest.(check int) "final clock" (Time.ms 99) (Engine.now e)

let test_schedule_in_past_fires_now () =
  let e = Engine.create () in
  let at = ref (-1) in
  ignore
    (Engine.schedule_after e (Time.ms 10)
       (fun () ->
         ignore (Engine.schedule_at e Time.zero (fun () -> at := Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "past-scheduled fires at current time" (Time.ms 10) !at

(* [fire] overtakes the 1 ms event; the [run] that follows must run it
   late, at 3 ms, not move the clock back to 1 ms. *)
let test_run_after_fire_keeps_clock () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule_at e (Time.ms 1) (fun () -> seen := Engine.now e));
  let later = Engine.schedule_at e (Time.ms 3) ignore in
  Alcotest.(check bool) "fired" true (Engine.fire e (Engine.event_seq later));
  Engine.run e;
  Alcotest.(check int) "overtaken event runs at 3 ms" (Time.ms 3) !seen;
  Alcotest.(check int) "clock stays at 3 ms" (Time.ms 3) (Engine.now e)

(* Keyed [fire] on events that are not at the head of the queue: each
   runs now, at max(now, fire_at); unknown, cancelled and already-fired
   seqs run nothing; the rest of the queue keeps its (time, seq) order. *)
let test_fire_keyed () =
  let e = Engine.create () in
  let log = ref [] in
  let at name t =
    Engine.schedule_at e t (fun () -> log := (name, Engine.now e) :: !log)
  in
  ignore (at "a" (Time.ms 1));
  let b = at "b" (Time.ms 2) in
  let c = at "c" (Time.ms 3) in
  let x = at "x" (Time.ms 4) in
  ignore (at "d" (Time.ms 5));
  ignore (at "g" (Time.ms 1));
  ignore (at "f" (Time.ms 5));
  Engine.cancel e x;
  let fire ev = Engine.fire e (Engine.event_seq ev) in
  Alcotest.(check bool) "fire c" true (fire c);
  Alcotest.(check bool) "fire b" true (fire b);
  Alcotest.(check bool) "unknown seq" false (Engine.fire e 1_000);
  Alcotest.(check bool) "cancelled" false (fire x);
  Alcotest.(check bool) "already fired" false (fire c);
  Alcotest.(check (list (pair string int)))
    "fired at max(now, fire_at)"
    [ ("c", Time.ms 3); ("b", Time.ms 3) ]
    (List.rev !log);
  Alcotest.(check int) "clock" (Time.ms 3) (Engine.now e);
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "rest in (time, seq) order"
    [
      ("c", Time.ms 3);
      ("b", Time.ms 3);
      ("a", Time.ms 3);
      ("g", Time.ms 3);
      ("d", Time.ms 5);
      ("f", Time.ms 5);
    ]
    (List.rev !log);
  Alcotest.(check int) "processed" 6 (Engine.processed e)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  let c = Rng.create ~seed:43 in
  Alcotest.(check bool) "different seed differs" true
    (Rng.bits64 (Rng.create ~seed:42) <> Rng.bits64 c)

let test_rng_split_independent () =
  let a = Rng.create ~seed:1 in
  let b = Rng.split a in
  let x = Rng.bits64 b in
  (* Replaying: splitting at the same point yields the same stream. *)
  let a' = Rng.create ~seed:1 in
  let b' = Rng.split a' in
  Alcotest.(check int64) "split reproducible" x (Rng.bits64 b')

let test_rng_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Rng.float rng 2.0 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.0);
    let i = Rng.int_in rng ~lo:5 ~hi:8 in
    Alcotest.(check bool) "int_in inclusive" true (i >= 5 && i <= 8)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean ~5" true (mean > 4.7 && mean < 5.3)

let test_rng_bernoulli () =
  let rng = Rng.create ~seed:3 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "bernoulli rate ~0.3" true (rate > 0.27 && rate < 0.33)

let test_heap_sorts () =
  let h = Heap.create ~cmp:Int.compare in
  let input = [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ] in
  List.iter (Heap.push h) input;
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (drain [])

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* Removing one element (of possibly several equal ones) leaves a valid
   heap holding exactly the others. *)
let prop_heap_remove_first =
  QCheck.Test.make ~name:"heap remove_first keeps the rest sorted" ~count:500
    QCheck.(pair (list_of_size Gen.(1 -- 64) small_signed_int) small_nat)
    (fun (xs, k) ->
      let x = List.nth xs (k mod List.length xs) in
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let removed = Heap.remove_first h (Int.equal x) in
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some y -> drain (y :: acc)
      in
      let rec without = function
        | [] -> []
        | y :: ys -> if y = x then ys else y :: without ys
      in
      removed = Some x && drain [] = List.sort Int.compare (without xs))

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are seed-deterministic" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let run () =
        let e = Engine.create ~seed () in
        let rng = Rng.split (Engine.rng e) in
        let log = Buffer.create 64 in
        for i = 0 to 20 do
          let d = Rng.int rng 1000 in
          ignore
            (Engine.schedule_after e (Time.us d) (fun () ->
                 Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e))))
        done;
        Engine.run e;
        Buffer.contents log
      in
      String.equal (run ()) (run ()))

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [ Alcotest.test_case "units" `Quick test_time_units ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_events_fire_in_time_order;
          Alcotest.test_case "same-instant fifo" `Quick test_same_instant_fifo;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "run until horizon" `Quick test_run_until_horizon;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "past scheduling clamps" `Quick
            test_schedule_in_past_fires_now;
          Alcotest.test_case "run after fire keeps the clock" `Quick
            test_run_after_fire_keeps_clock;
          Alcotest.test_case "keyed fire" `Quick test_fire_keyed;
          QCheck_alcotest.to_alcotest prop_engine_deterministic;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split reproducible" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_remove_first;
        ] );
    ]
