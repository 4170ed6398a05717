(* Per-layer instrumentation for a traced run, attached entirely from
   outside the program: every number here comes from wrapping or hooking
   a public entry point of a layer, exactly as the program itself wires
   it, so no file under lib/ knows it is being measured.

   - Site.receive: each site's network handler is re-registered as a
     timing wrapper around it (Cluster.create registers the bare call).
   - Engine crash points: a recording hook that never crashes.  The WAL
     announces "wal:force-volatile" per force request and
     "wal:force-durable" per completed device cycle; commit machines
     announce "part:*" / "coord:*" per consumed input.
   - Cluster.crash_site / Cluster.recover_site, Audit.standard and the
     explorer's [sys] closures are timed by the callers below.

   Spans are kept only when asked for (they are written as JSONL after
   the repetition); the tallies below are kept always. *)

open Rt_core
module Engine = Rt_sim.Engine
module Time = Rt_sim.Time
module Txn_id = Rt_types.Ids.Txn_id

type span = {
  sp_name : string;
  sp_site : int;  (* -1: not tied to a site *)
  sp_txn : Txn_id.t option;  (* shared by every span of one transaction *)
  sp_vt : Time.t;  (* virtual time at the start *)
  sp_start_ns : int;  (* host clock *)
  sp_dur_ns : int;
  sp_words : int;  (* minor words allocated inside *)
}

(* Tallies over the traced measurement window; [snapshot] freezes them
   when the window ends, so post-run checks do not leak into per-commit
   ratios. *)
type counts = {
  mutable deliveries : int;
  mutable receive_ns : int;
  mutable receive_words : int;
  mutable heap_samples : int;
  mutable heap_sum : int;  (* queued events, cancelled included *)
  mutable cancelled_sum : float;  (* cancelled share of the queue *)
  mutable part_steps : int;
  mutable force_requests : int;
  mutable force_cycles : int;
  mutable force_waits : int;
  mutable force_wait_ns : int;
}

type t = {
  keep_spans : bool;
  mutable spans : span list;  (* newest first *)
  c : counts;
  (* Force requests not yet covered by a completed cycle, per site. *)
  mutable pending_forces : Time.t Queue.t array;
  mutable down_since : Time.t option array;
  mutable recoveries : int;
  mutable recover_ns : int;
  mutable replayed : int;
  mutable unavailable_ns : int;
  mutable unavailable_n : int;
  mutable audit_ns : int;
  mutable audits : int;
  (* Explorer closures. *)
  mutable digest_ns : int;
  mutable digests : int;
  mutable x_audit_ns : int;
  mutable drain_ns : int;
}

let create ~keep_spans =
  {
    keep_spans;
    spans = [];
    c =
      {
        deliveries = 0;
        receive_ns = 0;
        receive_words = 0;
        heap_samples = 0;
        heap_sum = 0;
        cancelled_sum = 0.;
        part_steps = 0;
        force_requests = 0;
        force_cycles = 0;
        force_waits = 0;
        force_wait_ns = 0;
      };
    pending_forces = [||];
    down_since = [||];
    recoveries = 0;
    recover_ns = 0;
    replayed = 0;
    unavailable_ns = 0;
    unavailable_n = 0;
    audit_ns = 0;
    audits = 0;
    digest_ns = 0;
    digests = 0;
    x_audit_ns = 0;
    drain_ns = 0;
  }

let snapshot t = { t.c with deliveries = t.c.deliveries }

(* Time [f], record a span, and return [f]'s result with its duration. *)
let span t ~name ?(site = -1) ?txn ~vt f =
  let w0 = Gc.minor_words () in
  let t0 = Host.now_ns () in
  let r = f () in
  let dur = Host.now_ns () - t0 in
  let words = int_of_float (Gc.minor_words () -. w0) in
  if t.keep_spans then
    t.spans <-
      { sp_name = name; sp_site = site; sp_txn = txn; sp_vt = vt;
        sp_start_ns = t0; sp_dur_ns = dur; sp_words = words }
      :: t.spans;
  (r, dur, words)

(* Cancelled timers stay queued until they surface, so the heap the
   engine orders can be larger than its live work.  Counting them folds
   the whole queue, hence the sampling. *)
let sample_every = 1024

let note_serving t engine site =
  match t.down_since.(Site.id site) with
  | Some since when Site.serving site ->
      t.down_since.(Site.id site) <- None;
      t.unavailable_ns <- t.unavailable_ns + (Engine.now engine - since);
      t.unavailable_n <- t.unavailable_n + 1
  | Some _ | None -> ()

let on_point t engine ~force_latency ~site ~point =
  let c = t.c in
  if String.starts_with ~prefix:"part:" point then
    c.part_steps <- c.part_steps + 1
  else if String.equal point "wal:force-volatile" then begin
    c.force_requests <- c.force_requests + 1;
    Queue.push (Engine.now engine) t.pending_forces.(site)
  end
  else if String.equal point "wal:force-durable" then begin
    c.force_cycles <- c.force_cycles + 1;
    (* The device takes exactly [force_latency], so the completing cycle
       started then and covers every request queued by that instant. *)
    let now = Engine.now engine in
    let started = now - force_latency in
    let q = t.pending_forces.(site) in
    while (not (Queue.is_empty q)) && Queue.peek q <= started do
      c.force_wait_ns <- c.force_wait_ns + (now - Queue.pop q);
      c.force_waits <- c.force_waits + 1
    done
  end

let attach t cluster =
  let engine = Cluster.engine cluster in
  let sites = Cluster.sites cluster in
  t.pending_forces <- Array.map (fun _ -> Queue.create ()) sites;
  t.down_since <- Array.map (fun _ -> None) sites;
  let force_latency = (Cluster.config cluster).force_latency in
  Engine.set_crash_hook engine
    (Some (fun ~site ~point -> on_point t engine ~force_latency ~site ~point));
  Array.iter
    (fun site ->
      Rt_net.Net.register (Cluster.net cluster) (Site.id site)
        (fun ~src msg ->
          let c = t.c in
          let (), dur, words =
            span t ~name:"site.receive" ~site:(Site.id site)
              ?txn:msg.Msg.txn ~vt:(Engine.now engine) (fun () ->
                Site.receive site ~src msg)
          in
          c.deliveries <- c.deliveries + 1;
          c.receive_ns <- c.receive_ns + dur;
          c.receive_words <- c.receive_words + words;
          if c.deliveries mod sample_every = 0 then begin
            let queued = Engine.pending engine in
            c.heap_samples <- c.heap_samples + 1;
            c.heap_sum <- c.heap_sum + queued;
            if queued > 0 then
              c.cancelled_sum <-
                c.cancelled_sum
                +. float_of_int (queued - Engine.live_pending engine)
                   /. float_of_int queued
          end;
          note_serving t engine site))
    sites

let crash t cluster i =
  let engine = Cluster.engine cluster in
  ignore
    (span t ~name:"cluster.crash_site" ~site:i ~vt:(Engine.now engine)
       (fun () -> Cluster.crash_site cluster i));
  Queue.clear t.pending_forces.(i);
  t.down_since.(i) <- Some (Engine.now engine)

let recover t cluster i =
  let engine = Cluster.engine cluster in
  let site = Cluster.site cluster i in
  let replay = Site.log_length site in
  let (), dur, _ =
    span t ~name:"cluster.recover_site" ~site:i ~vt:(Engine.now engine)
      (fun () -> Cluster.recover_site cluster i)
  in
  t.recoveries <- t.recoveries + 1;
  t.recover_ns <- t.recover_ns + dur;
  t.replayed <- t.replayed + replay;
  note_serving t engine site

let audit t cluster f =
  let vs, dur, _ =
    span t ~name:"audit.standard" ~vt:(Cluster.now cluster) f
  in
  t.audit_ns <- t.audit_ns + dur;
  t.audits <- t.audits + 1;
  vs

(* The explorer rebuilds its system for every execution; wrap each
   build's closures so replay cost can be split into fingerprinting,
   leaf audit, leaf drain, and the remainder (rebuilding and re-firing
   the schedule prefix). *)
let explore_sys t make_sys () =
  let sys : Rt_explore.Explore.sys = make_sys () in
  let engine = sys.ys_engine in
  let wrap name add f () =
    let r, dur, _ = span t ~name ~vt:(Engine.now engine) f in
    add dur;
    r
  in
  {
    sys with
    ys_digest =
      wrap "explore.digest"
        (fun d ->
          t.digest_ns <- t.digest_ns + d;
          t.digests <- t.digests + 1)
        sys.ys_digest;
    ys_audit =
      wrap "explore.audit" (fun d -> t.x_audit_ns <- t.x_audit_ns + d)
        sys.ys_audit;
    ys_drain =
      wrap "explore.drain" (fun d -> t.drain_ns <- t.drain_ns + d) sys.ys_drain;
  }

let span_json ~workload sp =
  Printf.sprintf
    "{\"workload\":%S,\"name\":%S,\"site\":%d,\"txn\":%s,\"vt_ns\":%d,\"start_ns\":%d,\"dur_ns\":%d,\"words\":%d}"
    workload sp.sp_name sp.sp_site
    (match sp.sp_txn with
    | None -> "null"
    | Some txn -> Printf.sprintf "%S" (Txn_id.to_string txn))
    sp.sp_vt sp.sp_start_ns sp.sp_dur_ns sp.sp_words

let write_spans t ~workload oc =
  List.iter
    (fun sp ->
      output_string oc (span_json ~workload sp);
      output_char oc '\n')
    (List.rev t.spans)
