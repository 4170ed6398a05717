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

(* The queue is a binary min-heap ([heap.(0 .. size-1)]) plus the
   fixed-delay lines.  Every event on a line fires [delay] after it was
   scheduled, the clock never decreases and seqs rise, so a line in
   FIFO order is already sorted by [(fire_at, seq)]: the queue's next
   event is the least of the heap's top and the line heads. *)
type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable n_processed : int;
  mutable heap : event array;
  mutable size : int;
  mutable lines : line array;
  root_rng : Rng.t;
  mutable crash_hook : crash_hook option;
}

(* A ring buffer: [len] events from [buf.(head)] on, wrapping. *)
and line = {
  owner : t;
  delay : Time.t;
  mutable buf : event array;
  mutable head : int;
  mutable len : int;
}

(* Fills every vacated slot, so the queue keeps no fired thunk alive. *)
let vacant =
  { fire_at = max_int; seq = -1; label = Internal (-1); thunk = ignore;
    cancelled = true }

let[@inline] before a b =
  a.fire_at < b.fire_at || (a.fire_at = b.fire_at && a.seq < b.seq)

let create ?(seed = 0) () =
  {
    clock = Time.zero;
    next_seq = 0;
    n_processed = 0;
    heap = [||];
    size = 0;
    lines = [||];
    root_rng = Rng.create ~seed;
    crash_hook = None;
  }

let now t = t.clock
let rng t = t.root_rng

let set_crash_hook t hook = t.crash_hook <- hook
let crash_hook_installed t = t.crash_hook <> None

let crash_point t ~site ~point =
  match t.crash_hook with None -> () | Some f -> f ~site ~point

(* {2 Heap} *)

(* Moves the hole at [i] up until [ev] fits in it. *)
let sift_up h ev i =
  let i = ref i in
  while !i > 0 && before ev h.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    h.(!i) <- h.(parent);
    i := parent
  done;
  h.(!i) <- ev

(* Moves the hole at [i] down, within [h.(0 .. size-1)], until [ev]
   fits in it. *)
let sift_down h size ev i =
  let i = ref i and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= size then settled := true
    else begin
      let c = if l + 1 < size && before h.(l + 1) h.(l) then l + 1 else l in
      if before h.(c) ev then begin
        h.(!i) <- h.(c);
        i := c
      end
      else settled := true
    end
  done;
  h.(!i) <- ev

let heap_push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (max 16 (2 * t.size)) vacant in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  sift_up t.heap ev t.size;
  t.size <- t.size + 1

(* The last event fills the hole at [i], then moves up or down to where
   it belongs. *)
let heap_remove t i =
  let h = t.heap in
  let ev = h.(i) in
  let last = t.size - 1 in
  let moved = h.(last) in
  h.(last) <- vacant;
  t.size <- last;
  if i < last then
    if i > 0 && before moved h.((i - 1) / 2) then sift_up h moved i
    else sift_down h last moved i;
  ev

(* {2 Lines} *)

(* The index of the [k]th event, for [k < Array.length l.buf]. *)
let[@inline] slot l k =
  let i = l.head + k in
  if i >= Array.length l.buf then i - Array.length l.buf else i

(* A line grows by half: it holds tens of thousands of events on a busy
   run, and its spare capacity counts as live heap. *)
let line_push l ev =
  let cap = Array.length l.buf in
  if l.len = cap then begin
    let bigger = Array.make (max 16 (cap + (cap / 2))) vacant in
    for k = 0 to l.len - 1 do
      bigger.(k) <- l.buf.(slot l k)
    done;
    l.buf <- bigger;
    l.head <- 0
  end;
  l.buf.(slot l l.len) <- ev;
  l.len <- l.len + 1

(* Removes the [k]th event; the ones behind it close up, in order. *)
let line_remove l k =
  let ev = l.buf.(slot l k) in
  if k = 0 then begin
    l.buf.(l.head) <- vacant;
    l.head <- slot l 1
  end
  else begin
    for j = k to l.len - 2 do
      l.buf.(slot l j) <- l.buf.(slot l (j + 1))
    done;
    l.buf.(slot l (l.len - 1)) <- vacant
  end;
  l.len <- l.len - 1;
  ev

let line t delay =
  if delay < 0 then invalid_arg "Engine.line: negative delay";
  match Array.find_opt (fun l -> l.delay = delay) t.lines with
  | Some l -> l
  | None ->
      let l = { owner = t; delay; buf = [||]; head = 0; len = 0 } in
      t.lines <- Array.append t.lines [| l |];
      l

(* {2 The queue} *)

(* Where the next event is: [in_heap], line [k] for [k >= 0], or
   [nowhere] when the queue is empty. *)
let in_heap = -1
let nowhere = -2

let next_source t =
  let src = ref (if t.size > 0 then in_heap else nowhere) in
  let best = ref (if t.size > 0 then t.heap.(0) else vacant) in
  let lines = t.lines in
  for k = 0 to Array.length lines - 1 do
    let l = lines.(k) in
    if l.len > 0 then begin
      let ev = l.buf.(l.head) in
      if !src = nowhere || before ev !best then begin
        src := k;
        best := ev
      end
    end
  done;
  !src

let source_head t src =
  if src = in_heap then t.heap.(0)
  else
    let l = t.lines.(src) in
    l.buf.(l.head)

let take t src =
  if src = in_heap then heap_remove t 0 else line_remove t.lines.(src) 0

let fold_queued f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.heap.(i)
  done;
  Array.iter
    (fun l ->
      for k = 0 to l.len - 1 do
        acc := f !acc l.buf.(slot l k)
      done)
    t.lines;
  !acc

let new_event t label fire_at thunk =
  let ev = { fire_at; seq = t.next_seq; label; thunk; cancelled = false } in
  t.next_seq <- t.next_seq + 1;
  ev

let schedule_at ?(label = Internal (-1)) t when_ thunk =
  let ev = new_event t label (Time.max when_ t.clock) thunk in
  heap_push t ev;
  ev

let schedule_after ?label t delay thunk =
  schedule_at ?label t (Time.add t.clock delay) thunk

let schedule_on ?(label = Internal (-1)) l thunk =
  let t = l.owner in
  let ev = new_event t label (Time.add t.clock l.delay) thunk in
  line_push l ev;
  ev

let cancel _t ev = ev.cancelled <- true

let pending t = Array.fold_left (fun n l -> n + l.len) t.size t.lines

let event_seq (ev : event_id) = ev.seq

let frontier t =
  fold_queued
    (fun acc ev ->
      if ev.cancelled then acc else (ev.seq, ev.fire_at, ev.label) :: acc)
    [] t
  |> List.sort (fun (s1, t1, _) (s2, t2, _) ->
         let c = Time.compare t1 t2 in
         if c <> 0 then c else Int.compare s1 s2)

(* Removes the queued event with the given seq, or returns [vacant].
   A line's seqs rise, so its search stops at the first larger one. *)
let remove_seq t seq =
  let rec search_heap i =
    if i >= t.size then search_lines 0
    else if t.heap.(i).seq = seq then heap_remove t i
    else search_heap (i + 1)
  and search_lines n =
    if n >= Array.length t.lines then vacant
    else
      let l = t.lines.(n) in
      let rec scan k =
        if k >= l.len then search_lines (n + 1)
        else
          let s = l.buf.(slot l k).seq in
          if s = seq then line_remove l k
          else if s > seq then search_lines (n + 1)
          else scan (k + 1)
      in
      scan 0
  in
  search_heap 0

let fire t seq =
  (* Run the event as if it were next: the clock only ever moves
     forward, so firing an event "early" models the permitted asynchrony
     — other pending events will simply fire late. *)
  let ev = remove_seq t seq in
  if ev.cancelled (* or [vacant]: no such event *) then false
  else begin
    t.clock <- Time.max t.clock ev.fire_at;
    t.n_processed <- t.n_processed + 1;
    ev.thunk ();
    true
  end

let live_pending t =
  fold_queued (fun n ev -> if ev.cancelled then n else n + 1) 0 t

let processed t = t.n_processed

let run ?until ?max_events t =
  let horizon = Option.value until ~default:max_int in
  let budget = ref (Option.value max_events ~default:max_int) in
  let same_instant = ref 0 in
  let last_instant = ref (-1) in
  let rec loop () =
    if !budget > 0 then begin
      let src = next_source t in
      if src <> nowhere && (source_head t src).fire_at <= horizon then begin
        let ev = take t src in
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
        end;
        loop ()
      end
    end
  in
  loop ();
  (* If we stopped because of the horizon, advance the clock to it so that
     subsequent scheduling is relative to the end of the window. *)
  match until with
  | Some horizon when Time.(t.clock < horizon) ->
      let src = next_source t in
      if src = nowhere || (source_head t src).fire_at > horizon then
        t.clock <- horizon
  | _ -> ()
