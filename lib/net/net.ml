open Rt_sim

type node_id = int

type link = {
  latency : Latency.t;
  drop : float;
  duplicate : float;
  overhead : Time.t;
      (* Per-envelope egress cost: each transmission occupies the
         sender's egress port for this long before propagation begins,
         so a batched envelope pays it once for all its messages.
         [Time.zero] = infinite egress bandwidth (the legacy model). *)
}

let reliable_link ?(overhead = Time.zero) latency =
  if Time.(overhead < zero) then
    invalid_arg "Net.reliable_link: overhead must be non-negative";
  { latency; drop = 0.; duplicate = 0.; overhead }

module Stats = struct
  type t = {
    mutable sent : int;
    mutable delivered : int;
    mutable dropped_link : int;
    mutable dropped_partition : int;
    mutable duplicated : int;
    mutable envelopes : int;
  }

  let create () =
    {
      sent = 0;
      delivered = 0;
      dropped_link = 0;
      dropped_partition = 0;
      duplicated = 0;
      envelopes = 0;
    }

  let dropped t = t.dropped_link + t.dropped_partition
end

type 'msg t = {
  engine : Engine.t;
  rng : Rng.t;
  batch : Time.t option;  (* flush window; None = one envelope per message *)
  default : link;
  (* Dense n×n fast paths: link overrides and the per-link FIFO floor are
     consulted on every send, so they index by (src, dst) directly
     instead of hashing a tuple. *)
  overrides : link option array array;
  handlers : (src:node_id -> 'msg -> unit) option array;
  part : Partition.t;
  (* Per-link virtual "last scheduled delivery" used to enforce FIFO.
     [Time.zero] means no delivery scheduled yet (arrival times are
     always >= now >= 0, so zero never raises the floor). *)
  last_delivery : Time.t array array;
  (* When each node's egress port is next free; envelopes serialize
     through it for their link's [overhead].  Stays at [Time.zero] (never
     a constraint) while every link has zero overhead. *)
  egress : Time.t array;
  (* Batched mode: messages queued (reversed) per link until the flush
     window fires. *)
  pending : 'msg list array array;
  pending_armed : bool array array;
  (* Scheduled-but-undelivered envelopes, keyed by the engine seq of their
     delivery event — the explorer's view of the wire.  Each envelope
     carries its messages in FIFO (send) order. *)
  in_flight : (int, node_id * node_id * 'msg list) Hashtbl.t;
  stats : Stats.t;
}

let create ?batch engine ~nodes ~default =
  if nodes <= 0 then invalid_arg "Net.create: nodes must be positive";
  (match batch with
  | Some w when Time.(w <= zero) ->
      invalid_arg "Net.create: batch window must be positive"
  | Some _ | None -> ());
  {
    engine;
    rng = Rng.split (Engine.rng engine);
    batch;
    default;
    overrides = Array.init nodes (fun _ -> Array.make nodes None);
    handlers = Array.make nodes None;
    part = Partition.create ~nodes;
    last_delivery = Array.init nodes (fun _ -> Array.make nodes Time.zero);
    egress = Array.make nodes Time.zero;
    pending = Array.init nodes (fun _ -> Array.make nodes []);
    pending_armed = Array.init nodes (fun _ -> Array.make nodes false);
    in_flight = Hashtbl.create 64;
    stats = Stats.create ();
  }

let nodes t = Array.length t.handlers
let engine t = t.engine
let partition t = t.part

let check_node t n =
  if n < 0 || n >= Array.length t.handlers then
    invalid_arg (Printf.sprintf "Net: node %d out of range" n)

let set_link t ~src ~dst link =
  check_node t src;
  check_node t dst;
  t.overrides.(src).(dst) <- Some link

let clear_link t ~src ~dst =
  check_node t src;
  check_node t dst;
  t.overrides.(src).(dst) <- None

let clear_links t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) None) t.overrides

let link_for t ~src ~dst =
  match t.overrides.(src).(dst) with Some l -> l | None -> t.default

let link t ~src ~dst =
  check_node t src;
  check_node t dst;
  link_for t ~src ~dst

let register t n handler =
  check_node t n;
  t.handlers.(n) <- Some handler

let deliver t ~src ~dst ~seq msgs () =
  Hashtbl.remove t.in_flight seq;
  if Partition.reachable t.part ~src ~dst then
    (* Unpack in FIFO order, re-checking the handler per message: a
       handler that disappears mid-envelope loses the tail, exactly as
       it would have lost those messages as separate events. *)
    List.iter
      (fun m ->
        match t.handlers.(dst) with
        | Some handler ->
            t.stats.delivered <- t.stats.delivered + 1;
            handler ~src m
        | None ->
            (* No handler: the endpoint is effectively unreachable, not a
               link fault. *)
            t.stats.dropped_partition <- t.stats.dropped_partition + 1)
      msgs
  else
    t.stats.dropped_partition <-
      t.stats.dropped_partition + List.length msgs

let schedule_envelope t ~src ~dst msgs =
  let link = link_for t ~src ~dst in
  (* Serialize through the sender's egress port: the envelope departs
     once the port is free and occupies it for [overhead].  Duplicates
     are retransmissions and pay again; dropped envelopes never reach
     the port. *)
  let depart =
    Time.add (Time.max (Engine.now t.engine) t.egress.(src)) link.overhead
  in
  t.egress.(src) <- depart;
  let delay = Latency.sample link.latency t.rng in
  (* Per-link FIFO: never arrive before an earlier envelope on the link. *)
  let arrive = Time.max (Time.add depart delay) t.last_delivery.(src).(dst) in
  t.last_delivery.(src).(dst) <- arrive;
  t.stats.envelopes <- t.stats.envelopes + 1;
  (* The delivery event needs its own engine seq (to deregister from the
     in-flight registry), which the engine only assigns at scheduling
     time — tie the knot with a cell. *)
  let seq = ref (-1) in
  let ev =
    Engine.schedule_at
      ~label:(Engine.Delivery { src; dst })
      t.engine arrive
      (fun () -> deliver t ~src ~dst ~seq:!seq msgs ())
  in
  seq := Engine.event_seq ev;
  Hashtbl.replace t.in_flight !seq (src, dst, msgs)

(* Put an envelope on the wire: one loss roll and one duplication roll
   for the whole envelope, so faults affect exactly its contents (the
   per-message tallies still count every message inside). *)
let transmit t ~src ~dst msgs =
  let n = List.length msgs in
  let link = link_for t ~src ~dst in
  if link.drop > 0. && Rng.bernoulli t.rng ~p:link.drop then
    t.stats.dropped_link <- t.stats.dropped_link + n
  else begin
    schedule_envelope t ~src ~dst msgs;
    if link.duplicate > 0. && Rng.bernoulli t.rng ~p:link.duplicate then begin
      t.stats.duplicated <- t.stats.duplicated + n;
      schedule_envelope t ~src ~dst msgs
    end
  end

let flush_link t ~src ~dst () =
  t.pending_armed.(src).(dst) <- false;
  match List.rev t.pending.(src).(dst) with
  | [] -> ()
  | msgs ->
      t.pending.(src).(dst) <- [];
      (* A partition that formed inside the window loses the whole
         envelope before it reaches the wire. *)
      if not (Partition.reachable t.part ~src ~dst) then
        t.stats.dropped_partition <-
          t.stats.dropped_partition + List.length msgs
      else transmit t ~src ~dst msgs

let send t ~src ~dst msg =
  check_node t src;
  check_node t dst;
  t.stats.sent <- t.stats.sent + 1;
  if not (Partition.reachable t.part ~src ~dst) then
    t.stats.dropped_partition <- t.stats.dropped_partition + 1
  else
    match t.batch with
    | None -> transmit t ~src ~dst [ msg ]
    | Some window ->
        t.pending.(src).(dst) <- msg :: t.pending.(src).(dst);
        if not t.pending_armed.(src).(dst) then begin
          t.pending_armed.(src).(dst) <- true;
          ignore
            (Engine.schedule_after
               ~label:(Engine.Timer { site = src; name = "net-flush" })
               t.engine window
               (flush_link t ~src ~dst))
        end

let broadcast t ~src msg =
  for dst = 0 to nodes t - 1 do
    if dst <> src then send t ~src ~dst msg
  done

let in_flight t =
  Hashtbl.fold (fun seq (src, dst, msgs) acc -> (seq, src, dst, msgs) :: acc)
    t.in_flight []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b)

let find_in_flight t ~seq = Hashtbl.find_opt t.in_flight seq

let pending t ~src ~dst =
  check_node t src;
  check_node t dst;
  List.rev t.pending.(src).(dst)

let stats t = t.stats

let dump t ~msg =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "sent=%d;del=%d;dl=%d;dp=%d;dup=%d;env=%d|" t.stats.sent
       t.stats.delivered t.stats.dropped_link t.stats.dropped_partition
       t.stats.duplicated t.stats.envelopes);
  List.iter
    (fun (_, src, dst, msgs) ->
      (* Send order, seq itself left out: engine seqs differ across
         explorer branches that reach the same abstract state. *)
      Buffer.add_string b
        (Printf.sprintf "%d>%d:%s;" src dst
           (String.concat "," (List.map msg msgs))))
    (in_flight t);
  (* Batched-but-unflushed messages are mutable state too: render them per
     link in send order. *)
  Array.iteri
    (fun src row ->
      Array.iteri
        (fun dst q ->
          match q with
          | [] -> ()
          | q ->
              Buffer.add_string b
                (Printf.sprintf "%d~%d:%s;" src dst
                   (String.concat "," (List.map msg (List.rev q)))))
        row)
    t.pending;
  Buffer.contents b
