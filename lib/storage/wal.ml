open Rt_sim

type lsn = int

type stats = {
  st_started : int;
  st_completed : int;
  st_lost : int;
  st_torn : int;
  st_pending : int;
}

type scan_result = { sc_torn : int; sc_corrupt : int }

(* A stored record plus its on-disk integrity metadata.  [s_crc] is the
   record checksum as written; fault injection flips it to model a
   garbled sector.  [s_chain] chains the checksum to the predecessor's
   chain value, so a scan can detect a record that is individually valid
   but does not belong at its position. *)
type 'r slot = { s_rec : 'r; mutable s_crc : int; s_chain : int }

type 'r t = {
  engine : Engine.t;
  force_latency : Time.t;
  group_window : Time.t;  (* zero = start the device on the first force *)
  owner : int;  (* owning site, for crash points; -1 = anonymous *)
  mutable records : 'r slot array;  (* index i holds LSN base + i + 1 *)
  mutable size : int;
  mutable base : lsn;  (* number of truncated records *)
  mutable base_chain : int;  (* chain value of the record at LSN [base] *)
  mutable durable : lsn;
  mutable waiting : (lsn * (unit -> unit)) list;  (* reversed *)
  mutable device_busy : bool;
  mutable flush_armed : bool;  (* group-commit window timer pending *)
  mutable epoch : int;  (* bumped on crash to silence in-flight completions *)
  (* The in-flight (or, while [completing], just-finished) device cycle
     covers LSNs (cycle_base, cycle_base + cycle_size]; a torn crash
     keeps a prefix of exactly that range. *)
  mutable cycle_base : lsn;
  mutable cycle_size : int;
  mutable completing : bool;  (* inside the "wal:force-durable" announce *)
  (* Crash-consistent device-cycle accounting: a cycle is [started] when
     the device begins writing, [completed] when its completion event
     runs, [lost] when a crash lands in between, and [torn] when a crash
     leaves only a prefix of it durable.  The invariant
     [started = completed + lost + torn + (busy ? 1 : 0)] holds at every
     instant, so [force_count] (= completed) never counts a cycle whose
     effects a crash discarded. *)
  mutable started : int;
  mutable completed : int;
  mutable lost : int;
  mutable torn : int;
}

(* Deterministic structural checksum.  [Hashtbl.hash] truncates deep
   structures (and polymorphic hashing of ids is linted against); a
   digest of the marshalled bytes covers the whole record. *)
let checksum r =
  let d = Digest.string (Marshal.to_string r []) in
  let h = ref 0 in
  String.iter (fun c -> h := (!h * 131) + Char.code c) d;
  !h land max_int

let chain_next prev crc = ((prev * 1000003) + crc + 1) land max_int

let create ?(owner = -1) ?(group_window = Time.zero) engine ~force_latency () =
  if Time.(group_window < zero) then
    invalid_arg "Wal.create: group_window must be non-negative";
  {
    engine;
    force_latency;
    group_window;
    owner;
    records = [||];
    size = 0;
    base = 0;
    base_chain = 0;
    durable = 0;
    waiting = [];
    device_busy = false;
    flush_armed = false;
    epoch = 0;
    cycle_base = 0;
    cycle_size = 0;
    completing = false;
    started = 0;
    completed = 0;
    lost = 0;
    torn = 0;
  }

(* Announce a crash point and report whether the log is still alive: the
   hook may crash the owning site synchronously, which bumps our epoch. *)
let reach_crash_point t point =
  if t.owner >= 0 && Engine.crash_hook_installed t.engine then begin
    let epoch = t.epoch in
    Engine.crash_point t.engine ~site:t.owner ~point;
    t.epoch = epoch
  end
  else true

let tail_lsn t = t.base + t.size
let durable_lsn t = t.durable
let first_lsn t = t.base + 1
let length t = t.size
let force_count t = t.completed
let last_cycle_size t = t.cycle_size

let stats t =
  {
    st_started = t.started;
    st_completed = t.completed;
    st_lost = t.lost;
    st_torn = t.torn;
    st_pending = List.length t.waiting;
  }

let append t r =
  let crc = checksum r in
  let prev_chain =
    if t.size = 0 then t.base_chain else t.records.(t.size - 1).s_chain
  in
  let slot = { s_rec = r; s_crc = crc; s_chain = chain_next prev_chain crc } in
  let cap = Array.length t.records in
  if t.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let nrecords = Array.make ncap slot in
    Array.blit t.records 0 nrecords 0 t.size;
    t.records <- nrecords
  end;
  t.records.(t.size) <- slot;
  t.size <- t.size + 1;
  tail_lsn t

let fire_satisfied t =
  let satisfied, still =
    List.partition (fun (upto, _) -> upto <= t.durable) t.waiting
  in
  t.waiting <- still;
  (* Fire in request order (list is reversed). *)
  List.iter (fun (_, k) -> k ()) (List.rev satisfied)

let rec start_device_cycle t =
  t.device_busy <- true;
  t.started <- t.started + 1;
  let target = tail_lsn t in
  t.cycle_base <- t.durable;
  t.cycle_size <- target - t.durable;
  let epoch = t.epoch in
  (* The device cycle is plumbing, not a scheduling choice for an
     explorer: its latency shapes only the timing of the messages its
     continuations send, and a crash on either side of it is explored at
     the two force crash points. *)
  ignore
    (Engine.schedule_after ~label:(Engine.Internal t.owner) t.engine
       t.force_latency (fun () ->
         if t.epoch = epoch then begin
           t.device_busy <- false;
           t.completed <- t.completed + 1;
           if target > t.durable then t.durable <- target;
           (* Crash here: the records are durable but every continuation
              waiting on them is lost.  While the announcement runs the
              just-finished cycle can still tear ([completing]). *)
           t.completing <- true;
           let alive = reach_crash_point t "wal:force-durable" in
           if alive then begin
             t.completing <- false;
             fire_satisfied t;
             (* Anything still waiting targets records appended after this
                cycle started: run another cycle immediately — the cycle
                just finished already was the grouping window.  A fired
                continuation may itself have forced and restarted the
                device; starting a second overlapping cycle would
                double-count the flush (and leave a completion a crash
                can silence without marking it lost). *)
             if t.waiting <> [] && not t.device_busy then
               start_device_cycle t
           end
         end))

(* Group-commit controller: the first force inside a window arms a
   per-site flush timer; every force that arrives before it fires joins
   the same flush, so concurrent transactions share one device cycle.
   With a zero window the device starts immediately (the classical
   per-transaction force, modulo busy-device coalescing). *)
let arm_flush t =
  t.flush_armed <- true;
  let epoch = t.epoch in
  ignore
    (Engine.schedule_after ~label:(Engine.Internal t.owner) t.engine
       t.group_window (fun () ->
         if t.epoch = epoch then begin
           t.flush_armed <- false;
           if t.waiting <> [] && not t.device_busy then start_device_cycle t
         end))

let force t ?upto k =
  let upto = Option.value upto ~default:(tail_lsn t) in
  if upto <= t.durable then
    ignore
      (Engine.schedule_after ~label:(Engine.Internal t.owner) t.engine
         Time.zero (fun () -> k ()))
  else if
    (* Crash here: the forced records are still volatile and are lost. *)
    reach_crash_point t "wal:force-volatile"
  then begin
    t.waiting <- (upto, k) :: t.waiting;
    if not t.device_busy then
      if Time.(t.group_window = zero) then start_device_cycle t
      else if not t.flush_armed then arm_flush t
  end

let garble t ~lsn =
  let s = t.records.(lsn - t.base - 1) in
  s.s_crc <- lnot s.s_crc

let crash ?torn t =
  t.epoch <- t.epoch + 1;
  let torn_applied =
    match torn with
    | Some k when (t.device_busy || t.completing) && t.cycle_size > 0 ->
        (* The device was (or had just finished) writing LSNs
           (cycle_base, cycle_base + cycle_size]; exactly [k] of them
           reached the platter.  The rest of the cycle survives as
           garbage sectors — recovery's scan must find and drop them —
           and anything appended after the cycle never hit the device. *)
        let k = max 0 (min k t.cycle_size) in
        let target = t.cycle_base + t.cycle_size in
        if t.completing then t.completed <- t.completed - 1;
        t.torn <- t.torn + 1;
        t.durable <- t.cycle_base + k;
        for lsn = t.durable + 1 to target do
          garble t ~lsn
        done;
        t.size <- target - t.base;
        true
    | _ -> false
  in
  if not torn_applied then begin
    if t.device_busy then t.lost <- t.lost + 1;
    (* Drop the volatile suffix. *)
    let keep = t.durable - t.base in
    t.size <- max 0 keep
  end;
  t.device_busy <- false;
  t.completing <- false;
  t.flush_armed <- false;
  t.waiting <- []

let corrupt_record t ~lsn =
  if lsn <= t.base || lsn > tail_lsn t then
    invalid_arg "Wal.corrupt_record: LSN not retained";
  garble t ~lsn

let scan t =
  let valid i chain =
    let s = t.records.(i) in
    s.s_crc = checksum s.s_rec && s.s_chain = chain_next chain s.s_crc
  in
  let rec first_break i chain =
    if i >= t.size then None
    else if valid i chain then first_break (i + 1) t.records.(i).s_chain
    else Some i
  in
  match first_break 0 t.base_chain with
  | None -> { sc_torn = 0; sc_corrupt = 0 }
  | Some i ->
      (* Truncate at the first checksum/chain break: everything from the
         break on is dropped, even later records that happen to verify —
         the chain is only trustworthy up to the break. *)
      let break_lsn = t.base + i + 1 in
      let dropped = t.size - i in
      let corrupt = max 0 (t.durable - (break_lsn - 1)) in
      t.size <- i;
      if t.durable > break_lsn - 1 then t.durable <- break_lsn - 1;
      { sc_torn = dropped - corrupt; sc_corrupt = corrupt }

let records_from t ~count = List.init count (fun i -> t.records.(i).s_rec)
let durable_records t = records_from t ~count:(max 0 (t.durable - t.base))
let all_records t = records_from t ~count:t.size

let dump t ~record =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "base=%d durable=%d busy=%b armed=%b;" t.base t.durable
       t.device_busy t.flush_armed);
  for i = 0 to t.size - 1 do
    let lsn = t.base + i + 1 in
    let tag = if lsn <= t.durable then 'D' else 'v' in
    Buffer.add_string buf
      (Printf.sprintf "%c%d:%s;" tag lsn (record t.records.(i).s_rec))
  done;
  Buffer.contents buf

let truncate t ~upto =
  if upto > t.durable then invalid_arg "Wal.truncate: beyond durable point";
  let drop = upto - t.base in
  if drop > 0 then begin
    t.base_chain <- t.records.(drop - 1).s_chain;
    let remaining = t.size - drop in
    let nrecords =
      if remaining = 0 then [||] else Array.sub t.records drop remaining
    in
    t.records <- nrecords;
    t.size <- remaining;
    t.base <- upto
  end
