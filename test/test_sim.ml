(* Tests for the discrete-event engine: clock semantics, ordering,
   cancellation, fixed-delay lines, a model test of the event queue, and
   determinism of the RNG. *)

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

(* {2 The event queue: heap and fixed-delay lines} *)

(* Ten out-of-order times drain sorted. *)
let test_queue_sorts () =
  let e = Engine.create () in
  let order = ref [] in
  List.iter
    (fun x ->
      ignore (Engine.schedule_at e (Time.ms x) (fun () -> order := x :: !order)))
    [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ];
  Engine.run e;
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

(* The engine's heap holds every [schedule_at] event.  Each event
   records its own scheduled time, so the drained list is the heap's
   pop order, whatever the clock does. *)
let schedule_batch e xs =
  let order = ref [] in
  let ids =
    List.map
      (fun x -> Engine.schedule_at e x (fun () -> order := x :: !order))
      xs
  in
  (ids, order)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun xs ->
      let e = Engine.create () in
      let _, order = schedule_batch e xs in
      Engine.run e;
      List.rev !order = List.sort Int.compare xs)

(* A keyed [fire] takes one event out of the middle of the heap (the
   k-th scheduled, possibly one of several equal times); the rest still
   drain sorted. *)
let prop_heap_remove_first =
  QCheck.Test.make ~name:"heap remove_first keeps the rest sorted" ~count:500
    QCheck.(pair (list_of_size Gen.(1 -- 64) small_nat) small_nat)
    (fun (xs, k) ->
      let k = k mod List.length xs in
      let x = List.nth xs k in
      let e = Engine.create () in
      let ids, order = schedule_batch e xs in
      let fired = Engine.fire e (Engine.event_seq (List.nth ids k)) in
      let removed = !order in
      order := [];
      Engine.run e;
      let rec without = function
        | [] -> []
        | y :: ys -> if y = x then ys else y :: without ys
      in
      fired && removed = [ x ]
      && List.rev !order = List.sort Int.compare (without xs))

(* Heap events and events on two lines, with equal fire times across
   them: [frontier] lists them in (time, seq) order and [run] fires them
   in that order, also for a line event scheduled after the clock moved. *)
let test_frontier_interleaves_lines () =
  let e = Engine.create () in
  let l2 = Engine.line e (Time.ms 2) and l5 = Engine.line e (Time.ms 5) in
  Alcotest.(check bool) "one line per delay" true (Engine.line e (Time.ms 2) == l2);
  let log = ref [] in
  let tag name () = log := (name, Engine.now e) :: !log in
  let seq ev = Engine.event_seq ev in
  let a = Engine.schedule_on l5 (tag "a") in
  let b = Engine.schedule_at e (Time.ms 1) (tag "b") in
  let c = Engine.schedule_on l2 (tag "c") in
  let d = Engine.schedule_at e (Time.ms 5) (tag "d") in
  let x = Engine.schedule_on l2 (tag "x") in
  let f = Engine.schedule_at e (Time.ms 2) (tag "f") in
  Alcotest.(check (list (pair int int)))
    "frontier"
    [
      (seq b, Time.ms 1);
      (seq c, Time.ms 2);
      (seq x, Time.ms 2);
      (seq f, Time.ms 2);
      (seq a, Time.ms 5);
      (seq d, Time.ms 5);
    ]
    (List.map (fun (s, at, _) -> (s, at)) (Engine.frontier e));
  Engine.run ~until:(Time.ms 3) e;
  let g = Engine.schedule_on l2 (tag "g") in
  Alcotest.(check (list int)) "frontier after the clock moved"
    [ seq a; seq d; seq g ]
    (List.map (fun (s, _, _) -> s) (Engine.frontier e));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "fired in frontier order"
    [
      ("b", Time.ms 1);
      ("c", Time.ms 2);
      ("x", Time.ms 2);
      ("f", Time.ms 2);
      ("a", Time.ms 5);
      ("d", Time.ms 5);
      ("g", Time.ms 5);
    ]
    (List.rev !log)

let test_line_cancel_and_fire () =
  let e = Engine.create () in
  let l = Engine.line e (Time.ms 1) in
  let log = ref [] in
  let tag name () = log := name :: !log in
  ignore (Engine.schedule_on l (tag "a"));
  let b = Engine.schedule_on l (tag "b") in
  let c = Engine.schedule_on l (tag "c") in
  let counts () = (Engine.pending e, Engine.live_pending e) in
  Alcotest.(check (pair int int)) "queued" (3, 3) (counts ());
  Engine.cancel e b;
  Alcotest.(check (pair int int)) "cancelled leaves live_pending" (3, 2)
    (counts ());
  Alcotest.(check bool) "fire c early" true (Engine.fire e (Engine.event_seq c));
  Alcotest.(check (pair int int)) "fired leaves the queue" (2, 1) (counts ());
  Alcotest.(check bool) "cancelled b" false (Engine.fire e (Engine.event_seq b));
  Alcotest.(check bool) "c again" false (Engine.fire e (Engine.event_seq c));
  Alcotest.(check (pair int int)) "only a" (1, 1) (counts ());
  Engine.run e;
  Alcotest.(check (list string)) "b never runs, c runs once" [ "c"; "a" ]
    (List.rev !log);
  Alcotest.(check (pair int int)) "drained" (0, 0) (counts ());
  Alcotest.(check int) "processed" 2 (Engine.processed e)

let test_line_rejects_negative () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.line: negative delay") (fun () ->
      ignore (Engine.line e (Time.ns (-1))));
  let l = Engine.line e Time.zero in
  let fired = ref false in
  ignore (Engine.schedule_on l (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "zero delay fires" true !fired

(* {3 Model test}

   A random program drives the engine and a reference that keeps one
   list sorted by [(fire_at, seq)]; both must fire the same events at
   the same clock readings and agree on [frontier], [pending] and
   [live_pending] after every step.  An event may schedule one more
   when it fires. *)

type sched = At of int | After of int | On of int

type op =
  | Sched of sched * sched option  (* the event, and what it schedules *)
  | Cancel of int  (* the nth event scheduled so far, mod their number *)
  | Fire of int
      (* keyed fire of the nth event, mod their number, while n is below
         twice it; an unknown seq beyond *)
  | Run_until of int  (* run ~until:(now + d) *)
  | Run_max of int  (* run ~max_events:n *)

(* Times are microseconds, small enough that many events share one. *)
let pp_sched = function
  | At t -> Printf.sprintf "at %d" t
  | After d -> Printf.sprintf "after %d" d
  | On k -> Printf.sprintf "on %d" k

let pp_op = function
  | Sched (s, None) -> pp_sched s
  | Sched (s, Some c) -> Printf.sprintf "%s then %s" (pp_sched s) (pp_sched c)
  | Cancel n -> Printf.sprintf "cancel %d" n
  | Fire n -> Printf.sprintf "fire %d" n
  | Run_until d -> Printf.sprintf "run-until +%d" d
  | Run_max n -> Printf.sprintf "run-max %d" n

(* The reference: one list sorted by [(at, seq)]. *)
module Model = struct
  type ev = { at : int; seq : int; run : unit -> unit; mutable dead : bool }
  type t = { mutable now : int; mutable next : int; mutable q : ev list }

  let create () = { now = 0; next = 0; q = [] }

  let rec insert ev = function
    | [] -> [ ev ]
    | e :: rest when e.at < ev.at || (e.at = ev.at && e.seq < ev.seq) ->
        e :: insert ev rest
    | q -> ev :: q

  let schedule t at run =
    let ev = { at = max at t.now; seq = t.next; run; dead = false } in
    t.next <- t.next + 1;
    t.q <- insert ev t.q;
    ev

  let fire t seq =
    match List.find_opt (fun e -> e.seq = seq) t.q with
    | None -> false
    | Some ev ->
        t.q <- List.filter (fun e -> e != ev) t.q;
        if ev.dead then false
        else begin
          t.now <- max t.now ev.at;
          ev.run ();
          true
        end

  let run ?(until = max_int) ?(max_events = max_int) t =
    let budget = ref max_events in
    let rec loop () =
      match t.q with
      | ev :: rest when !budget > 0 && ev.at <= until ->
          t.q <- rest;
          t.now <- max t.now ev.at;
          if not ev.dead then begin
            decr budget;
            ev.run ()
          end;
          loop ()
      | _ -> ()
    in
    loop ();
    match t.q with
    | ev :: _ when !budget = 0 && ev.at <= until -> ()
    | _ -> if until <> max_int && t.now < until then t.now <- until

  let frontier t =
    List.filter_map (fun e -> if e.dead then None else Some (e.seq, e.at)) t.q
end

(* What a program needs from a queue; [handle] is its event handle. *)
type 'h queue = {
  now : unit -> int;
  sched : sched -> (unit -> unit) -> 'h;
  seq_of : 'h -> int;
  cancel : 'h -> unit;
  fire : int -> bool;
  run_until : int -> unit;
  run_max : int -> unit;
  drain : unit -> unit;
  state : unit -> int * int * (int * int) list;
      (* pending, live_pending, frontier as (seq, fire_at) *)
}

let engine_queue delays =
  let e = Engine.create () in
  let lines = List.map (fun d -> Engine.line e (Time.us d)) delays in
  {
    now = (fun () -> Engine.now e);
    sched =
      (fun s f ->
        match s with
        | At t -> Engine.schedule_at e (Time.us t) f
        | After d -> Engine.schedule_after e (Time.us d) f
        | On k -> Engine.schedule_on (List.nth lines k) f);
    seq_of = Engine.event_seq;
    cancel = Engine.cancel e;
    fire = Engine.fire e;
    run_until = (fun d -> Engine.run ~until:(Engine.now e + Time.us d) e);
    run_max = (fun n -> Engine.run ~max_events:n e);
    drain = (fun () -> Engine.run e);
    state =
      (fun () ->
        ( Engine.pending e,
          Engine.live_pending e,
          List.map (fun (s, at, _) -> (s, at)) (Engine.frontier e) ));
  }

let model_queue delays =
  let m = Model.create () in
  {
    now = (fun () -> m.now);
    sched =
      (fun s f ->
        let at =
          match s with
          | At t -> Time.us t
          | After d -> m.now + Time.us d
          | On k -> m.now + Time.us (List.nth delays k)
        in
        Model.schedule m at f);
    seq_of = (fun ev -> ev.Model.seq);
    cancel = (fun ev -> ev.Model.dead <- true);
    fire = Model.fire m;
    run_until = (fun d -> Model.run ~until:(m.now + Time.us d) m);
    run_max = (fun n -> Model.run ~max_events:n m);
    drain = (fun () -> Model.run m);
    state =
      (fun () ->
        let f = Model.frontier m in
        (List.length m.q, List.length f, f));
  }

type observation =
  | Fired of int * int  (* event number, clock *)
  | Fire_result of bool
  | State of int * int * int * (int * int) list
      (* clock, pending, live_pending, frontier *)

(* Runs [prog] on [q]; event numbers count schedulings in order. *)
let interpret q prog =
  let obs = ref [] and handles = ref [||] in
  let note o = obs := o :: !obs in
  let rec schedule s child =
    let n = Array.length !handles in
    let h =
      q.sched s (fun () ->
          note (Fired (n, q.now ()));
          Option.iter (fun c -> schedule c None) child)
    in
    handles := Array.append !handles [| h |]
  in
  let nth i = !handles.(i mod Array.length !handles) in
  List.iter
    (fun op ->
      (match op with
      | Sched (s, child) -> schedule s child
      | Cancel i -> if Array.length !handles > 0 then q.cancel (nth i)
      | Fire i ->
          let n = Array.length !handles in
          let seq = if i < 2 * n then q.seq_of (nth i) else 10_000 + i in
          note (Fire_result (q.fire seq))
      | Run_until d -> q.run_until d
      | Run_max n -> q.run_max n);
      let p, l, f = q.state () in
      note (State (q.now (), p, l, f)))
    prog;
  q.drain ();
  let p, l, f = q.state () in
  note (State (q.now (), p, l, f));
  List.rev !obs

let gen_program =
  let open QCheck.Gen in
  let* delays = list_size (2 -- 3) (oneofl [ 0; 0; 1; 2; 3; 5 ]) in
  let nlines = List.length delays in
  let sched =
    frequency
      [
        (3, map (fun t -> At t) (0 -- 30));
        (3, map (fun d -> After d) (0 -- 6));
        (4, map (fun k -> On k) (0 -- (nlines - 1)));
      ]
  in
  let op =
    frequency
      [
        (8, map2 (fun s c -> Sched (s, c)) sched (opt ~ratio:0.3 sched));
        (2, map (fun i -> Cancel i) nat);
        (2, map (fun i -> Fire i) (0 -- 200));
        (2, map (fun d -> Run_until d) (0 -- 8));
        (1, map (fun n -> Run_max n) (0 -- 4));
      ]
  in
  (* Long, line-heavy programs fill a line past its first capacity
     while its head has moved. *)
  let line_op =
    frequency
      [
        (8, map (fun k -> Sched (On k, None)) (0 -- (nlines - 1)));
        (1, map (fun n -> Run_max n) (0 -- 2));
        (1, map (fun i -> Fire i) (0 -- 200));
        (1, map (fun i -> Cancel i) nat);
      ]
  in
  (* Besides mixed programs: a batch of heap events drained in order,
     and the same with one of them (possibly one of several equal)
     fired by key first. *)
  let batch = list_size (1 -- 64) (map (fun t -> Sched (At t, None)) (0 -- 40)) in
  let* prog =
    frequency
      [
        (6, list_size (0 -- 60) op);
        (2, list_size (20 -- 100) line_op);
        (1, batch);
        (1, map2 (fun b k -> b @ [ Fire k ]) batch (0 -- 63));
      ]
  in
  return (delays, prog)

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine matches a sorted-list model" ~count:1000
    (QCheck.make gen_program ~print:(fun (delays, prog) ->
         Printf.sprintf "lines [%s]: %s"
           (String.concat "; " (List.map string_of_int delays))
           (String.concat ", " (List.map pp_op prog))))
    (fun (delays, prog) ->
      interpret (engine_queue delays) prog = interpret (model_queue delays) prog)

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
      ( "queue",
        [
          Alcotest.test_case "sorts" `Quick test_queue_sorts;
          Alcotest.test_case "frontier interleaves lines" `Quick
            test_frontier_interleaves_lines;
          Alcotest.test_case "line cancel and early fire" `Quick
            test_line_cancel_and_fire;
          Alcotest.test_case "line rejects negative delay" `Quick
            test_line_rejects_negative;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
        ] );
      ( "heap",
        [
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_remove_first;
        ] );
    ]
