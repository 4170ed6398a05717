type label =
  | Internal of int
  | Delivery of { src : int; dst : int }
  | Timer of { site : int; name : string }
  | Recurring of { site : int; name : string }

type event = {
  fire_at : Time.t;
  seq : int;
  label : label;
  thunk : unit -> unit;
  mutable cancelled : bool;
}

type event_id = event

type crash_hook = site:int -> point:string -> unit

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable n_processed : int;
  queue : event Heap.t;
  root_rng : Rng.t;
  mutable crash_hook : crash_hook option;
}

let compare_event a b =
  let c = Time.compare a.fire_at b.fire_at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?(seed = 0) () =
  {
    clock = Time.zero;
    next_seq = 0;
    n_processed = 0;
    queue = Heap.create ~cmp:compare_event;
    root_rng = Rng.create ~seed;
    crash_hook = None;
  }

let now t = t.clock
let rng t = t.root_rng

let set_crash_hook t hook = t.crash_hook <- hook
let crash_hook_installed t = t.crash_hook <> None

let crash_point t ~site ~point =
  match t.crash_hook with None -> () | Some f -> f ~site ~point

let schedule_at ?(label = Internal (-1)) t when_ thunk =
  let fire_at = Time.max when_ t.clock in
  let ev = { fire_at; seq = t.next_seq; label; thunk; cancelled = false } in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.queue ev;
  ev

let schedule_after ?label t delay thunk =
  schedule_at ?label t (Time.add t.clock delay) thunk

let cancel _t ev = ev.cancelled <- true
let pending t = Heap.length t.queue

let event_seq (ev : event_id) = ev.seq

let frontier t =
  Heap.fold
    (fun acc ev ->
      if ev.cancelled then acc else (ev.seq, ev.fire_at, ev.label) :: acc)
    [] t.queue
  |> List.sort (fun (s1, t1, _) (s2, t2, _) ->
         let c = Time.compare t1 t2 in
         if c <> 0 then c else Int.compare s1 s2)

let fire t seq =
  (* Run the event as if it were next: the clock only ever moves
     forward, so firing an event "early" models the permitted asynchrony
     — other pending events will simply fire late. *)
  match Heap.remove_first t.queue (fun ev -> ev.seq = seq) with
  | None -> false
  | Some ev when ev.cancelled -> false
  | Some ev ->
      t.clock <- Time.max t.clock ev.fire_at;
      t.n_processed <- t.n_processed + 1;
      ev.thunk ();
      true

let live_pending t =
  Heap.fold (fun acc ev -> if ev.cancelled then acc else acc + 1) 0 t.queue

let processed t = t.n_processed

let run ?until ?max_events t =
  let budget = ref (Option.value max_events ~default:max_int) in
  let continue () =
    !budget > 0
    &&
    match Heap.peek t.queue with
    | None -> false
    | Some ev -> (
        match until with
        | None -> true
        | Some horizon -> Time.(ev.fire_at <= horizon))
  in
  let same_instant = ref 0 in
  let last_instant = ref (-1) in
  while continue () do
    (match Heap.pop t.queue with
    | None -> ()
    | Some ev ->
        (* An event that [fire] overtook runs late, never in the past. *)
        t.clock <- Time.max t.clock ev.fire_at;
        if t.clock = !last_instant then begin
          incr same_instant;
          if !same_instant > 5_000_000 then
            failwith
              "Engine.run: millions of events at a single instant — some \
               component is rescheduling itself with zero delay"
        end
        else begin
          last_instant := t.clock;
          same_instant := 0
        end;
        if not ev.cancelled then begin
          t.n_processed <- t.n_processed + 1;
          decr budget;
          ev.thunk ()
        end);
  done;
  (* If we stopped because of the horizon, advance the clock to it so that
     subsequent scheduling is relative to the end of the window. *)
  match until with
  | Some horizon when Time.(t.clock < horizon) -> (
      match Heap.peek t.queue with
      | Some ev when Time.(ev.fire_at <= horizon) -> ()
      | _ -> t.clock <- horizon)
  | _ -> ()
