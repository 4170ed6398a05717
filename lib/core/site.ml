open Rt_sim
open Rt_types
module P = Rt_commit.Protocol
module Erased = Rt_commit.Erased
module Commit_protocol = Rt_commit.Commit_protocol
module RC = Rt_replica.Replica_control
module Lock = Rt_lock.Lock_table
module Stamps = Rt_lock.Stamps
module Kv = Rt_storage.Kv
module Wal = Rt_storage.Wal
module LR = Rt_storage.Log_record
module Checkpoint = Rt_storage.Checkpoint
module Recovery = Rt_storage.Recovery
module Heartbeat = Rt_member.Heartbeat
module Counter = Rt_metrics.Counter
module Sample = Rt_metrics.Sample
module Placement = Rt_placement.Placement
module Mix = Rt_workload.Mix
module Tid = Ids.Txn_id
module Sset = Set.Make (Int)

type abort_reason =
  | Unavailable
  | Lock_conflict
  | Deadlock
  | Order_conflict
  | Op_timeout
  | Protocol_abort
  | Site_down

let abort_reason_label = function
  | Unavailable -> "unavailable"
  | Lock_conflict -> "lock_conflict"
  | Deadlock -> "deadlock"
  | Order_conflict -> "order_conflict"
  | Op_timeout -> "op_timeout"
  | Protocol_abort -> "protocol_abort"
  | Site_down -> "site_down"

type outcome = Committed | Aborted of abort_reason

(* An outstanding lock wait at a participant: fires exactly one of the
   grant path or the refusal path. *)
type wait = {
  mutable w_done : bool;
  w_refuse : Msg.refusal -> unit;
  mutable w_timer : Engine.event_id option;
}

(* A commitment machine and what its driver keeps beside it: the
   protocol timers the machine armed, and [pin], the LSN of the first log
   record it appended.  No checkpoint truncates from a pin on: until the
   machine ends (see [ended]), recovery may need every record it wrote. *)
type slot = {
  mutable machine : Erased.t option;
  timers : (P.timer, Engine.event_id) Hashtbl.t;
  mutable pin : Wal.lsn option;
}

let new_slot () = { machine = None; timers = Hashtbl.create 4; pin = None }

type part_ctx = {
  pt_txn : Tid.t;
  mutable pt_writes : (string * string * int) list;
  mutable pt_participants : Ids.site_id list;
  pt_slot : slot;
  mutable pt_doomed : Msg.refusal option;
  mutable pt_resolved : bool;
  mutable pt_sweep : Engine.event_id option;  (* orphan-sweep timer *)
  mutable pt_waits : wait list;
}

(* A data-operation round: one logical read or write, sent to every site
   of its replica-control plan and done when each has replied.
   [rd_version] is the newest copy version reported so far (a read starts
   below any, at -1; a write at 0), [rd_value] the value read with it. *)
type round = {
  rd_op : Mix.op;
  rd_plan : Ids.site_id list;
  mutable rd_pending : Sset.t;
  mutable rd_version : int;
  mutable rd_value : string option;
  rd_timer : Engine.event_id;
  rd_k : (string option, abort_reason) Result.t -> unit;
}

type coord_ctx = {
  co_txn : Tid.t;
  co_started : Time.t;
  mutable co_ops : Mix.op list;
  mutable co_touched : Sset.t;
  mutable co_shards : Sset.t;
      (* Shard ids touched by this transaction's reads/writes; the
         commit protocol's scope is the union of their replica sets. *)
  co_site_writes : (Ids.site_id, (string * string * int) list) Hashtbl.t;
      (* Per site, the writes it must make durable, newest first. *)
  co_cache : (string, string) Hashtbl.t;
  co_slot : slot;
  mutable co_wait : round option;
  mutable co_finished : bool;
  mutable co_outcome : outcome option;
  mutable co_k : outcome -> unit;
  co_probes_seen : unit Ids.Txn_map.t;
      (* Initiators whose probes we already forwarded (CMH dedup). *)
}

(* The side of a transaction a machine plays at this site.  One driver
   ([feed]/[interpret]) runs both and branches on the role only where it
   changes what an action means. *)
type _ role = Part : part_ctx role | Coord : coord_ctx role

(* What this site knows of a transaction's outcome.  [Decided] is a
   genuine outcome, delivered locally or settled from the durable log.
   [Pledged] is an abort promised for a transaction the site took no part
   in (a termination state request, or an early abort that found no
   context): inquiries get "abort", but it is no decision, so cross-site
   agreement ignores it. *)
type known = Pledged | Decided of P.decision

type t = {
  engine : Engine.t;
  id : Ids.site_id;
  config : Config.t;
  placement : Placement.t;
  site_ids : Ids.site_id list;  (* [0; ..; sites-1], precomputed. *)
  others : Ids.site_id list;  (* site_ids minus self, precomputed. *)
  catchup_peers : Ids.site_id list;
      (* Sites sharing at least one shard with us — the only ones that
         can answer a catch-up request.  Equals [others] under full
         replication. *)
  (* rt_lint: allow fingerprint-coverage -- per-call scratch row for
     [txn_scope]; fully overwritten before every read, carries no state
     across events *)
  scope_scratch : bool array;
  send_raw : dst:Ids.site_id -> Msg.t -> unit;
  counters : Counter.t;
  kv : Kv.t;
  wal : LR.t Wal.t;
  cp : Checkpoint.t;
  mutable torn_truncated : int;  (* torn-tail records dropped by scans *)
  mutable corruption_detected : int;  (* durable records lost to corruption *)
  mutable cp_fallbacks : int;  (* recoveries that could not use the latest
                                  checkpoint *)
  mutable locks : Lock.t;
  mutable hb : Heartbeat.t option;
  mutable up : bool;
  mutable catching : bool;
  mutable incarnation : int;
  mutable stamps : Stamps.t;  (* used when config.concurrency = Timestamp *)
  parts : part_ctx Ids.Txn_map.t;
  coords : coord_ctx Ids.Txn_map.t;
  outcomes : known Ids.Txn_map.t;
  (* Paxos acceptor traffic that raced ahead of our own vote request:
     with independent per-link latencies another participant's phase-2a
     (or an early leader's phase-1a) can reach this site before the
     coordinator's Vote_req does.  Dropping it silently costs a full
     timeout round at the ballot-0 leader, so it is stashed (newest
     first, capped) and replayed once the participant machine exists.
     Deliberately volatile: a crash losing the stash is exactly the
     recovered-acceptor abstention the protocol already tolerates. *)
  px_early : (Ids.site_id * P.msg) list Ids.Txn_map.t;
  gc_line : Engine.line;  (* [reclaim_delay]: the gc timers *)
  sweep_line : Engine.line;  (* the orphan-sweep window *)
  mutable txn_seq : int;
  mutable commits_since_cp : int;
  lat : Sample.t;
}

let id t = t.id
let is_up t = t.up
let serving t = t.up && not t.catching
let kv t = t.kv
let wal_forces t = Wal.force_count t.wal
let wal_stats t = Wal.stats t.wal
let wal_last_cycle_size t = Wal.last_cycle_size t.wal
let log_length t = Wal.length t.wal
let torn_truncated t = t.torn_truncated
let corruption_detected t = t.corruption_detected
let checkpoint_fallbacks t = t.cp_fallbacks
let latencies t = t.lat

(* The bindings of a transaction table in transaction-id order: wherever
   a traversal's order reaches behaviour or output, it must not depend on
   the table's hashing history. *)
let by_txn map =
  Ids.Txn_map.fold (fun txn v acc -> (txn, v) :: acc) map []
  |> List.sort (fun (a, _) (b, _) -> Tid.compare a b)

let active_participants t =
  (* rt_lint: allow deterministic-iteration -- commutative count *)
  Ids.Txn_map.fold
    (fun _ ctx acc -> if ctx.pt_resolved then acc else acc + 1)
    t.parts 0

let blocked_participants t =
  (* rt_lint: allow deterministic-iteration -- commutative count *)
  Ids.Txn_map.fold
    (fun _ ctx acc ->
      match ctx.pt_slot.machine with
      | Some m when Erased.blocked m && not ctx.pt_resolved -> acc + 1
      | _ -> acc)
    t.parts 0

let decided_txns t =
  List.filter_map
    (function txn, Decided d -> Some (txn, d) | _, Pledged -> None)
    (by_txn t.outcomes)

let held_locks t = Lock.locked_keys t.locks

let lock_debug t =
  List.map
    (fun (key, holders, waiting) ->
      let side tag = function
        | [] -> ""
        | l ->
            Format.asprintf " %s=%a" tag
              (Format.pp_print_list
                 ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
                 (fun fmt (txn, m) ->
                   Format.fprintf fmt "%a/%a" Tid.pp txn Lock.pp_mode m))
              l
      in
      Printf.sprintf "%s:%s%s" key (side "held" holders) (side "wait" waiting))
    (Lock.dump t.locks)

let pending_protocol_timers t =
  (* rt_lint: allow deterministic-iteration -- commutative count *)
  Ids.Txn_map.fold
    (fun _ ctx acc -> acc + Hashtbl.length ctx.pt_slot.timers)
    t.parts 0
  + (* rt_lint: allow deterministic-iteration -- commutative count *)
  Ids.Txn_map.fold
    (fun _ ctx acc -> acc + Hashtbl.length ctx.co_slot.timers)
    t.coords 0

(* How long a resolved context stays in [parts]/[coords] before it is
   reclaimed, so that late protocol traffic still finds its machine. *)
let reclaim_delay = Time.sec 2

(* A lock request waiting longer than this is refused: distributed
   deadlocks resolve by timeout, local ones by cycle detection. *)
let lock_wait_timeout = Time.ms 20

(* A coordinator gives up on a read/write round after this long. *)
let op_timeout = Time.ms 40

(* A participant context whose commit machine never arrives (the
   coordinator died before phase 1 reached us) is aborted locally after
   this long: ten decision waits, 500 ms. *)
let orphan_window = 10 * P.default_timeouts.decision_wait

let create ~engine ~id ~config ~send ~counters =
  Config.validate config;
  let placement = Config.placement config in
  let site_ids = List.init config.Config.sites (fun i -> i) in
  {
    engine;
    id;
    config;
    placement;
    site_ids;
    others = List.filter (fun s -> s <> id) site_ids;
    catchup_peers = Placement.co_replicas placement ~site:id;
    scope_scratch = Array.make config.Config.sites false;
    send_raw = send;
    counters;
    kv = Kv.create ();
    wal =
      Wal.create ~owner:id ~group_window:config.Config.group_commit_window
        engine ~force_latency:config.force_latency ();
    cp = Checkpoint.create ();
    torn_truncated = 0;
    corruption_detected = 0;
    cp_fallbacks = 0;
    locks = Lock.create ();
    stamps = Stamps.create ();
    hb = None;
    up = true;
    catching = false;
    incarnation = 0;
    parts = Ids.Txn_map.create 64;
    coords = Ids.Txn_map.create 64;
    outcomes = Ids.Txn_map.create 64;
    px_early = Ids.Txn_map.create 8;
    gc_line = Engine.line engine reclaim_delay;
    sweep_line = Engine.line engine orphan_window;
    txn_seq = 0;
    commits_since_cp = 0;
    lat = Sample.create ();
  }

let up_pred t s =
  if s = t.id then t.up
  else match t.hb with Some hb -> Heartbeat.is_up hb s | None -> true

let up_view t =
  if not t.up then []
  else
    t.id :: (match t.hb with
             | Some hb -> Heartbeat.up_peers hb
             | None -> t.others)
    |> List.sort_uniq Int.compare

(* Run [f] only if the site is still in the same incarnation (and up):
   the guard for every asynchronous continuation a site schedules. *)
let guarded t f =
  let inc = t.incarnation in
  fun () -> if t.up && t.incarnation = inc then f ()

let decide t txn d = Ids.Txn_map.replace t.outcomes txn (Decided d)

(* A pledge never overrides what the site already knows. *)
let pledge_abort t txn =
  if not (Ids.Txn_map.mem t.outcomes txn) then
    Ids.Txn_map.replace t.outcomes txn Pledged

(* The outcome an inquiry about [txn] is answered with. *)
let known_outcome t txn =
  match Ids.Txn_map.find_opt t.outcomes txn with
  | Some Pledged -> Some P.Abort
  | Some (Decided d) -> Some d
  | None -> None

let is_decided t txn =
  match Ids.Txn_map.find_opt t.outcomes txn with
  | Some (Decided _) -> true
  | Some Pledged | None -> false

let slot_of : type c. c role -> c -> slot =
 fun role ctx -> match role with Part -> ctx.pt_slot | Coord -> ctx.co_slot

let txn_of : type c. c role -> c -> Tid.t =
 fun role ctx -> match role with Part -> ctx.pt_txn | Coord -> ctx.co_txn

(* A machine has ended once no site can need its records again: a
   participant when it resolves; a coordinator when it has delivered the
   outcome and armed no timer, that is, every acknowledgement is in (it
   logged End) or it adopted a termination decision. *)
let ended : type c. c role -> c -> slot -> bool =
 fun role ctx slot ->
  match role with
  | Part -> ctx.pt_resolved
  | Coord -> ctx.co_finished && Hashtbl.length slot.timers = 0

(* Machine reclamation is a *delayed* cleanup, not a prompt continuation:
   it must be labelled as a timer, not [Internal], or an explorer that
   eagerly drains internal events reaps the machine ahead of in-flight
   protocol traffic (an ack then finds no machine, is dropped, and the
   reaped-but-live closure resends forever). *)
let gc : type c. t -> c role -> c -> unit =
 fun t role ctx ->
  ignore
    (Engine.schedule_on
       ~label:(Engine.Timer { site = t.id; name = "gc" })
       t.gc_line
       (guarded t (fun () ->
            match role with
            | Part when ctx.pt_resolved -> Ids.Txn_map.remove t.parts ctx.pt_txn
            | Coord when ctx.co_finished ->
                Ids.Txn_map.remove t.coords ctx.co_txn
            | Part | Coord -> ())))

(* ------------------------------------------------------------------ *)
(* Participant side                                                     *)
(* ------------------------------------------------------------------ *)

let part_ctx t txn = Ids.Txn_map.find_opt t.parts txn

(* Kill a transaction's local execution (deadlock victim, lock timeout,
   order conflict, coordinator abort).  Outstanding lock waits are
   refused; locks and pending stamps drop. *)
let doom_part t ctx reason =
  if ctx.pt_doomed = None && not ctx.pt_resolved then begin
    ctx.pt_doomed <- Some reason;
    (match reason with
    | Msg.R_deadlock -> Counter.incr t.counters "deadlock_victims"
    | Msg.R_lock_timeout -> Counter.incr t.counters "lock_timeouts"
    | Msg.R_order -> Counter.incr t.counters "order_conflicts"
    | Msg.R_doomed | Msg.R_down -> ());
    let waits = ctx.pt_waits in
    ctx.pt_waits <- [];
    List.iter
      (fun w ->
        if not w.w_done then begin
          w.w_done <- true;
          Option.iter (Engine.cancel t.engine) w.w_timer;
          w.w_refuse reason
        end)
      waits;
    Stamps.release t.stamps ~txn:ctx.pt_txn;
    Lock.release_all t.locks ~txn:ctx.pt_txn
  end

let get_or_create_part t txn =
  match Ids.Txn_map.find_opt t.parts txn with
  | Some ctx -> ctx
  | None ->
      let ctx =
        {
          pt_txn = txn;
          pt_writes = [];
          pt_participants = [];
          pt_slot = new_slot ();
          pt_doomed = None;
          pt_resolved = false;
          pt_sweep = None;
          pt_waits = [];
        }
      in
      Ids.Txn_map.replace t.parts txn ctx;
      (* Orphan sweep: if the coordinator dies before the commit protocol
         reaches us, no machine will ever resolve this context, and its
         locks would be held forever.  A machine-less context still
         unresolved after a generous window is aborted locally — the
         coordinator, if alive, sees refusals and aborts the whole
         transaction, so this is always safe.  The timer is cancelled as
         soon as the context resolves (see [cancel_sweep]); while a
         machine is attached but undecided it re-arms, since a recovered
         coordinator losing all memory can orphan us mid-protocol too. *)
      let rec sweep () =
        ctx.pt_sweep <-
          Some
            (Engine.schedule_on
               ~label:(Engine.Timer { site = t.id; name = "orphan-sweep" })
               t.sweep_line
               (guarded t (fun () ->
                    ctx.pt_sweep <- None;
                    if not ctx.pt_resolved then
                      if ctx.pt_slot.machine = None then begin
                        doom_part t ctx Msg.R_doomed;
                        ctx.pt_resolved <- true;
                        decide t txn P.Abort;
                        Ids.Txn_map.remove t.parts txn
                      end
                      else sweep ())))
      in
      sweep ();
      ctx

let cancel_sweep t ctx =
  match ctx.pt_sweep with
  | Some ev ->
      Engine.cancel t.engine ev;
      ctx.pt_sweep <- None
  | None -> ()

(* Append the records a [Log tag] action stands for and return the last
   LSN.  Only a participant logs [L_prepared]: its updates go ahead of
   the [Prepared] record, so that recovery can redo them. *)
let append_log t txn ~writes ~participants (tag : P.log_tag) =
  let record : LR.t =
    match tag with
    | P.L_prepared ->
        List.iter
          (fun (key, value, version) ->
            ignore
              (Wal.append t.wal (LR.Update { txn; key; value; version })))
          writes;
        LR.Prepared { txn; participants }
    | P.L_precommit -> LR.Precommit txn
    | P.L_preabort -> LR.Preabort txn
    | P.L_collecting -> LR.Collecting txn
    | P.L_decision P.Commit -> LR.Commit txn
    | P.L_decision P.Abort -> LR.Abort txn
    | P.L_end -> LR.End txn
  in
  Wal.append t.wal record

(* A termination inquiry carries the asker's participant set: an origin
   that lost all memory of the transaction resolves its protocol's
   presumption from it (see [answer_unknown]). *)
let inquiry participants =
  Some { Msg.writes = []; participants; presumed_down = [] }

let min_pin slot acc =
  match slot.pin with Some lsn -> min lsn acc | None -> acc

let maybe_checkpoint t =
  let every = t.config.checkpoint_every in
  if every > 0 && t.commits_since_cp >= every then begin
    t.commits_since_cp <- 0;
    let durable = Wal.durable_lsn t.wal in
    Checkpoint.take t.cp ~kv:t.kv ~lsn:durable
      ~shard_of:(Placement.shard_of_key t.placement);
    (* Keep the records of every live machine. *)
    let floor =
      (* rt_lint: allow deterministic-iteration -- commutative minimum *)
      Ids.Txn_map.fold (fun _ ctx acc -> min_pin ctx.pt_slot acc) t.parts
        (durable + 1)
    in
    let floor =
      (* rt_lint: allow deterministic-iteration -- commutative minimum *)
      Ids.Txn_map.fold (fun _ ctx acc -> min_pin ctx.co_slot acc) t.coords floor
    in
    let upto = min durable (floor - 1) in
    let upto =
      (* On a device that may fail, recovery may have to install the
         previous snapshot instead of a corrupt latest one; keep the log
         suffix that covers it, or the fallback would have nothing to
         replay.  A perfect device truncates up to the latest. *)
      if not t.config.Config.storage_faults then upto
      else
        match Checkpoint.previous_lsn t.cp with
        | Some prev -> min upto prev
        | None -> upto
    in
    if upto > Wal.first_lsn t.wal - 1 then Wal.truncate t.wal ~upto;
    Counter.incr t.counters "checkpoints"
  end

let handle_abort_txn t txn =
  match part_ctx t txn with
  | None -> pledge_abort t txn
  | Some ctx ->
      doom_part t ctx Msg.R_doomed;
      ctx.pt_resolved <- true;
      cancel_sweep t ctx;
      decide t txn P.Abort;
      Counter.incr t.counters "participant_aborts";
      gc t Part ctx

(* ------------------------------------------------------------------ *)
(* Coordinator side                                                     *)
(* ------------------------------------------------------------------ *)

let site_writes_for ctx dst =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt ctx.co_site_writes dst))

(* Every replica of every shard this transaction touched — the full set
   of copies the commit protocol is answerable for, including down ones
   the plans skipped.  Under full replication this is all sites.  Built
   by marking a dense per-site scratch row instead of folding set unions:
   ascending index order yields the same sorted result. *)
let txn_scope t ctx =
  let seen = t.scope_scratch in
  Array.fill seen 0 (Array.length seen) false;
  Sset.iter
    (fun shard ->
      List.iter (fun s -> seen.(s) <- true)
        (Placement.replicas t.placement ~shard))
    ctx.co_shards;
  let acc = ref [] in
  for s = Array.length seen - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Commit-message path                                                  *)
(* ------------------------------------------------------------------ *)

(* One recursive group: machines emit messages, messages to this site
   loop back into routing, and routing feeds machines again. *)
let rec out_commit_msg t txn ~dst pmsg ~prepare =
  if dst = t.id then
    (* Local loop-back: deliver through a zero-delay event so handling
       never re-enters the current call stack. *)
    ignore
      (Engine.schedule_after ~label:(Engine.Internal t.id) t.engine Time.zero
         (guarded t (fun () -> route_commit_msg t ~src:t.id txn pmsg prepare)))
  else begin
    Counter.incr t.counters "commit_protocol_msgs";
    t.send_raw ~dst (Msg.txn_msg txn (Msg.Commit_msg { pmsg; prepare }))
  end

(* Step a participant or coordinator machine and interpret its actions. *)
and feed : type c. t -> c role -> c -> P.input -> unit =
 fun t role ctx input ->
  let slot = slot_of role ctx in
  if t.up then
    match slot.machine with
    | None -> ()
    | Some m ->
        let m', actions = Erased.step m input in
        slot.machine <- Some m';
        interpret t role ctx slot actions;
        if ended role ctx slot then slot.pin <- None;
        (* Step boundary: the machine consumed [input] and its actions are
           fully interpreted — a crash here loses everything volatile the
           step produced but nothing of the step itself. *)
        if t.up && Engine.crash_hook_installed t.engine then
          Engine.crash_point t.engine ~site:t.id
            ~point:
              ((match role with Part -> "part:" | Coord -> "coord:")
              ^ P.input_point input)

(* The [t.up] check per action matters under fault injection: a forced
   log write can crash the site synchronously (wal crash points), and the
   rest of the action list must then be dropped exactly as if the site
   had died mid-step. *)
and interpret : type c. t -> c role -> c -> slot -> P.action list -> unit =
 fun t role ctx slot actions ->
  match actions with
  | action :: rest when t.up ->
      (match action with
      | P.Send (dst, pmsg) ->
          let prepare =
            match (role, pmsg) with
            | Part, P.Decision_req -> inquiry ctx.pt_participants
            | Coord, P.Decision_req -> inquiry (Sset.elements ctx.co_touched)
            | Coord, P.Vote_req ->
                let presumed_down =
                  if RC.needs_catchup_on_recovery t.config.replica_control
                  then
                    List.filter (fun s -> not (up_pred t s)) (txn_scope t ctx)
                  else []
                in
                Some
                  {
                    Msg.writes = site_writes_for ctx dst;
                    participants = Sset.elements ctx.co_touched;
                    presumed_down;
                  }
            | _ -> None
          in
          out_commit_msg t (txn_of role ctx) ~dst pmsg ~prepare
      | P.Log (tag, mode) -> (
          if slot.pin = None then slot.pin <- Some (Wal.tail_lsn t.wal + 1);
          let lsn =
            match role with
            | Part ->
                append_log t ctx.pt_txn ~writes:ctx.pt_writes
                  ~participants:ctx.pt_participants tag
            | Coord -> append_log t ctx.co_txn ~writes:[] ~participants:[] tag
          in
          match mode with
          | `Forced ->
              Wal.force t.wal ~upto:lsn
                (guarded t (fun () -> feed t role ctx (P.Log_done tag)))
          | `Lazy -> ())
      | P.Deliver d -> (
          match role with
          | Part -> resolve_part t (ctx : part_ctx) d
          | Coord ->
              decide t ctx.co_txn d;
              finish_coord t (ctx : coord_ctx)
                (match d with
                | P.Commit -> Committed
                | P.Abort -> Aborted Protocol_abort))
      | P.Set_timer (tm, delay) ->
          Option.iter (Engine.cancel t.engine)
            (Hashtbl.find_opt slot.timers tm);
          Hashtbl.replace slot.timers tm
            (Engine.schedule_after
               ~label:(Engine.Timer { site = t.id; name = P.timer_point tm })
               t.engine delay
               (guarded t (fun () ->
                    Hashtbl.remove slot.timers tm;
                    feed t role ctx (P.Timeout tm))))
      | P.Clear_timer tm ->
          Option.iter (Engine.cancel t.engine)
            (Hashtbl.find_opt slot.timers tm);
          Hashtbl.remove slot.timers tm
      | P.Blocked -> Counter.incr t.counters "blocked_reports"
      | P.Forget -> (
          match role with
          | Part ->
              (* Read-only participant: release without remembering. *)
              if not ctx.pt_resolved then begin
                ctx.pt_resolved <- true;
                cancel_sweep t ctx;
                Counter.incr t.counters "readonly_releases";
                Lock.release_all t.locks ~txn:ctx.pt_txn;
                gc t Part ctx
              end
          | Coord -> ()));
      interpret t role ctx slot rest
  | _ -> ()

and resolve_part t ctx (d : P.decision) =
  if not ctx.pt_resolved then begin
    ctx.pt_resolved <- true;
    cancel_sweep t ctx;
    decide t ctx.pt_txn d;
    (match d with
    | P.Commit ->
        List.iter
          (fun (key, value, version) ->
            (* Under timestamp ordering, the Thomas write rule skips
               writes already superseded by a newer-stamped commit; the
               version guard expresses the same rule in version space and
               also protects recovery replays. *)
            let apply =
              match t.config.concurrency with
              | Config.Locking -> version > Kv.version t.kv key
              | Config.Timestamp -> Stamps.install t.stamps ~txn:ctx.pt_txn ~key
            in
            if apply then Kv.set t.kv ~key ~value ~version)
          ctx.pt_writes;
        Counter.incr t.counters "participant_commits";
        t.commits_since_cp <- t.commits_since_cp + 1;
        maybe_checkpoint t
    | P.Abort -> Counter.incr t.counters "participant_aborts");
    Stamps.release t.stamps ~txn:ctx.pt_txn;
    Lock.release_all t.locks ~txn:ctx.pt_txn;
    (* A coordinator on this site must learn the decision too: a
       termination protocol can out-decide a deposed coordinator, and its
       decision distribution never produces a network message for a
       machine on its own site.  Zero-delay loop-back, like any local
       delivery. *)
    if Ids.Txn_map.mem t.coords ctx.pt_txn then
      ignore
        (Engine.schedule_after ~label:(Engine.Internal t.id) t.engine
           Time.zero
           (guarded t (fun () ->
                match Ids.Txn_map.find_opt t.coords ctx.pt_txn with
                | Some co when co.co_slot.machine <> None ->
                    feed t Coord co (P.Recv (t.id, P.Decision_msg d))
                | Some _ | None -> ())));
    gc t Part ctx
  end

and finish_coord t ctx outcome =
  if not ctx.co_finished then begin
    ctx.co_finished <- true;
    ctx.co_outcome <- Some outcome;
    (match outcome with
    | Committed ->
        Counter.incr t.counters "commits";
        Sample.add t.lat
          (Time.to_float_s (Time.sub (Engine.now t.engine) ctx.co_started))
    | Aborted reason ->
        Counter.incr t.counters "aborts";
        Counter.incr t.counters ("aborts_" ^ abort_reason_label reason));
    ctx.co_k outcome;
    gc t Coord ctx
  end

and handle_vote_req t ~src txn (prepare : Msg.prepare_info option) =
  if is_decided t txn then
    (* Coordinators never re-solicit votes, so a vote request for a
       transaction we already decided is a network duplicate that
       outlived the participant context.  Re-running the protocol from a
       fresh machine would re-vote on a settled transaction; drop it. *)
    ()
  else
  let ctx = get_or_create_part t txn in
  if ctx.pt_slot.machine <> None then
    (* Duplicate vote request: let the machine handle it. *)
    feed t Part ctx (P.Recv (src, P.Vote_req))
  else begin
    let validation_ok =
      match prepare with
      | Some { presumed_down; writes; _ } ->
          (* Available-copies validation: refuse to certify an update
             that skipped a copy we know to be alive (the coordinator's
             failure view is stale). *)
          writes = []
          || List.for_all (fun s -> not (up_pred t s)) presumed_down
      | None -> true
    in
    (match prepare with
    | Some { writes; participants; _ } ->
        ctx.pt_writes <- writes;
        ctx.pt_participants <- participants
    | None -> if ctx.pt_participants = [] then ctx.pt_participants <- t.site_ids);
    let pledged_abort =
      match Ids.Txn_map.find_opt t.outcomes txn with
      | Some Pledged -> true
      | Some (Decided _) | None -> false
    in
    if not validation_ok then Counter.incr t.counters "validation_vetoes";
    let vote = ctx.pt_doomed = None && (not pledged_abort) && validation_ok in
    ctx.pt_slot.machine <-
      Some
        (Commit_protocol.participant t.config.commit_protocol
           ~participants:ctx.pt_participants ~coordinator:txn.Tid.origin
           ~self:t.id ~vote
           ~read_only:(ctx.pt_writes = [] && t.config.read_only_optimization));
    feed t Part ctx (P.Recv (src, P.Vote_req));
    (* Replay paxos acceptor traffic that arrived before the machine
       existed, in arrival order (see [px_early]). *)
    match Ids.Txn_map.find_opt t.px_early txn with
    | None -> ()
    | Some pending ->
        Ids.Txn_map.remove t.px_early txn;
        List.iter
          (fun (psrc, pmsg) ->
            if ctx.pt_slot.machine <> None then
              feed t Part ctx (P.Recv (psrc, pmsg)))
          (List.rev pending)
  end

(* The presumption a site must apply for a transaction it knows nothing
   about.  Only the transaction's coordinator applies the 2PC variant's
   presumption.  A non-coordinator that remembers nothing answers
   [Decision_unknown]: it must not invent an authoritative outcome,
   because under the read-only optimization it may have voted read-only
   and forgotten a transaction that went on to commit — an invented
   "abort" reply would then contradict the real decision.  (State
   requests are different: a definite report is required for termination
   progress, and pledging abort before replying keeps it safe, since a
   site that pledged can never later vote yes.) *)
and answer_unknown t ~src txn (pmsg : P.msg) prepare =
  let reply m = out_commit_msg t txn ~dst:src m ~prepare:None in
  let known = known_outcome t txn in
  match pmsg with
  | P.Decision_req -> (
      let presumed =
        match known with
        | Some d -> Some d
        | None when txn.Tid.origin = t.id ->
            (* The asker's participant set fixes what the transaction
               ran with (Paxos Commit's F); without one, every site is
               the safe bound. *)
            let participants =
              match prepare with
              | Some { Msg.participants; _ } -> participants
              | None -> t.site_ids
            in
            Commit_protocol.presumption t.config.commit_protocol
              ~participants ~coordinator:t.id
        | None -> None
      in
      match presumed with
      | Some d -> reply (P.Decision_msg d)
      | None -> reply P.Decision_unknown)
  | P.State_req | P.Pq_state_req _ -> (
      let state_of = function
        | P.Commit -> P.P_committed
        | P.Abort -> P.P_aborted
      in
      let st =
        match known with
        | Some d -> state_of d
        | None ->
            pledge_abort t txn;
            P.P_aborted
      in
      match pmsg with
      | P.Pq_state_req e -> reply (P.Pq_state_report (e, st))
      | _ -> reply (P.State_report st))
  | P.Decision_msg d ->
      (* A decision reaching a site with no machine for the transaction
         (all memory of it lost in a crash, or already resolved and
         collected): record it if new, and always acknowledge — an
         ack-collecting coordinator would otherwise resend forever. *)
      if known = None then decide t txn d;
      Ids.Txn_map.remove t.px_early txn;
      reply P.Decision_ack
  | P.Px_p1a _ | P.Px_p2a _ -> (
      (* A paxos leader is probing; a remembered outcome terminates it.
         With no memory our acceptor died with us — abstain. *)
      match known with
      | Some d -> reply (P.Decision_msg d)
      | None -> ())
  | P.Decision_unknown | P.Vote_yes | P.Vote_no
  | P.Decision_ack | P.Precommit_msg | P.Precommit_ack | P.Pq_precommit _
  | P.Pq_precommit_ack _ | P.Pq_preabort _ | P.Pq_preabort_ack _
  | P.State_report _ | P.Pq_state_report _ | P.Vote_req
  | P.Vote_read_only | P.Px_p1b _ | P.Px_p2b _ | P.Px_nack _ ->
      ()

and route_commit_msg t ~src txn (pmsg : P.msg) prepare =
  let coord = Ids.Txn_map.find_opt t.coords txn in
  let coord_machine =
    match coord with
    | Some c when c.co_slot.machine <> None -> Some c
    | _ -> None
  in
  let to_part () =
    match part_ctx t txn with
    | Some ctx when ctx.pt_slot.machine <> None ->
        feed t Part ctx (P.Recv (src, pmsg))
    | Some _ | None -> answer_unknown t ~src txn pmsg prepare
  in
  match pmsg with
  | P.Vote_req -> handle_vote_req t ~src txn prepare
  | P.Vote_yes | P.Vote_no | P.Vote_read_only | P.Decision_ack -> (
      match coord_machine with
      | Some c -> feed t Coord c (P.Recv (src, pmsg))
      | None -> ())
  | P.Precommit_ack | P.Pq_precommit_ack _ | P.Pq_preabort_ack _ -> (
      match coord_machine with
      | Some c -> feed t Coord c (P.Recv (src, pmsg))
      | None -> to_part ())
  | P.Px_p1a _ | P.Px_p2a _ | P.Px_p1b _ | P.Px_p2b _ | P.Px_nack _ -> (
      (* The origin site's acceptor and ballot-0 leadership live in the
         coordinator machine; participant leaders never use the origin's
         ballot identity, so origin-bound paxos traffic is the
         coordinator's iff it is alive.  Elsewhere (or after the
         coordinator machine is gone) the participant machine serves its
         acceptor or leader role. *)
      match coord_machine with
      | Some c -> feed t Coord c (P.Recv (src, pmsg))
      | None -> (
          match part_ctx t txn with
          | Some ctx when ctx.pt_slot.machine <> None ->
              feed t Part ctx (P.Recv (src, pmsg))
          | Some _ | None -> (
              match pmsg with
              | P.Px_p1a _ | P.Px_p2a _
                when not (Ids.Txn_map.mem t.outcomes txn) ->
                  (* Acceptor traffic ahead of our Vote_req: stash for
                     replay at machine creation (see [px_early]).  The
                     cap bounds abandoned transactions; a dropped
                     message is re-earned by the sender's own
                     termination timers, exactly as before. *)
                  let pending =
                    Option.value ~default:[]
                      (Ids.Txn_map.find_opt t.px_early txn)
                  in
                  let cap = t.config.Config.px_early_stash_cap in
                  let pending =
                    (* On overflow drop the oldest stash entry (list is
                       newest-first): recent acceptor traffic supersedes
                       it, and its sender retransmits anyway. *)
                    if List.length pending >= cap then
                      List.filteri (fun i _ -> i < cap - 1) pending
                    else pending
                  in
                  Ids.Txn_map.replace t.px_early txn ((src, pmsg) :: pending)
              | _ -> answer_unknown t ~src txn pmsg prepare)))
  | P.State_report _ | P.Pq_state_report _ -> to_part ()
  | P.Decision_req -> (
      match coord_machine with
      | Some c when (match c.co_slot.machine with
                     | Some m -> Erased.decision m <> None
                     | None -> false) ->
          feed t Coord c (P.Recv (src, pmsg))
      | _ -> (
          (* A recorded outcome answers even when a local participant
             machine is itself still uncertain (e.g. a recovered
             coordinator-site participant asking around). *)
          match known_outcome t txn with
          | Some d ->
              out_commit_msg t txn ~dst:src (P.Decision_msg d) ~prepare:None
          | None -> to_part ()))
  | P.Decision_msg _ | P.Decision_unknown | P.Precommit_msg
  | P.Pq_precommit _ | P.Pq_preabort _ | P.State_req | P.Pq_state_req _ ->
      to_part ()

(* Abort before the commit protocol started: tell every touched site and
   fail any operation the caller is still waiting on. *)
let abort_coord_early t ctx reason =
  if not ctx.co_finished then begin
    let pending_k =
      match ctx.co_wait with
      | Some rd ->
          Engine.cancel t.engine rd.rd_timer;
          Some rd.rd_k
      | None -> None
    in
    ctx.co_wait <- None;
    decide t ctx.co_txn P.Abort;
    Sset.iter
      (fun s ->
        if s = t.id then handle_abort_txn t ctx.co_txn
        else begin
          Counter.incr t.counters "commit_protocol_msgs";
          t.send_raw ~dst:s (Msg.txn_msg ctx.co_txn Msg.Abort_txn)
        end)
      ctx.co_touched;
    finish_coord t ctx (Aborted reason);
    Option.iter (fun k -> k (Error reason)) pending_k
  end

let reason_of_refusal = function
  | Msg.R_lock_timeout -> Lock_conflict
  | Msg.R_deadlock -> Deadlock
  | Msg.R_order -> Order_conflict
  | Msg.R_doomed -> Lock_conflict
  | Msg.R_down -> Unavailable

(* ------------------------------------------------------------------ *)
(* Distributed deadlock probes (Chandy–Misra–Haas edge chasing)         *)
(* ------------------------------------------------------------------ *)

(* Send a probe that chases the edge [initiator waits-for target]. *)
let rec send_probe t ~initiator ~(target : Tid.t) =
  if target.Tid.origin = t.id then handle_probe t ~initiator ~target
  else begin
    Counter.incr t.counters "probe_msgs";
    t.send_raw ~dst:target.Tid.origin
      (Msg.txn_msg target (Msg.Probe { initiator }))
  end

(* A probe has arrived for [target].  Two cases: at [target]'s home site
   we route it onward (or declare a cycle if it came back to its own
   initiator); elsewhere we fan it out to [target]'s local blockers. *)
and handle_probe t ~initiator ~target =
  if target.Tid.origin = t.id then begin
    if Tid.equal initiator target then begin
      (* The probe went round a cycle: the initiator is deadlocked. *)
      match Ids.Txn_map.find_opt t.coords target with
      | Some ctx when (not ctx.co_finished) && ctx.co_slot.machine = None ->
          Counter.incr t.counters "probe_deadlocks";
          abort_coord_early t ctx Deadlock
      | _ -> ()
    end
    else
      match Ids.Txn_map.find_opt t.coords target with
      | Some ctx
        when (not ctx.co_finished)
             && not (Ids.Txn_map.mem ctx.co_probes_seen initiator) -> (
          Ids.Txn_map.replace ctx.co_probes_seen initiator ();
          (* Forward to every site the transaction is waiting on. *)
          match ctx.co_wait with
          | Some rd ->
              Sset.iter
                (fun site ->
                  if site = t.id then probe_local_blockers t ~initiator ~target
                  else begin
                    Counter.incr t.counters "probe_msgs";
                    t.send_raw ~dst:site
                      (Msg.txn_msg target (Msg.Probe { initiator }))
                  end)
                rd.rd_pending
          | None -> ())
      | _ -> ()
  end
  else probe_local_blockers t ~initiator ~target

and probe_local_blockers t ~initiator ~target =
  List.iter
    (fun blocker ->
      if Tid.equal blocker initiator then
        (* Cycle closed: tell the initiator's coordinator. *)
        send_probe t ~initiator ~target:initiator
      else send_probe t ~initiator ~target:blocker)
    (Lock.blocking t.locks ~txn:target)

(* ------------------------------------------------------------------ *)
(* Data operations                                                      *)
(* ------------------------------------------------------------------ *)

(* Admit a remote (or local) operation under the configured concurrency
   control — a lock ([Shared] for reads, [Exclusive] for writes) or a
   timestamp-ordering check — calling exactly one of [on_granted] and
   [reply_refuse], once. *)
let acquire_for_op t ctx ~mode ~key ~(on_granted : unit -> unit)
    ~(reply_refuse : Msg.refusal -> unit) =
  match ctx.pt_doomed with
  | Some r -> reply_refuse r
  (* A resolved context has already released its locks and pending
     marks; a data op landing now is a network duplicate, and admitting
     it would orphan the lock or mark forever (nothing ever resolves this
     transaction again). *)
  | None when ctx.pt_resolved -> reply_refuse Msg.R_doomed
  | None -> (
      match t.config.concurrency with
      | Config.Timestamp ->
          (* Basic TO never blocks: admit now or refuse for good. *)
          let admitted =
            match mode with
            | Lock.Shared -> Stamps.read t.stamps ~txn:ctx.pt_txn ~key
            | Lock.Exclusive -> Stamps.write t.stamps ~txn:ctx.pt_txn ~key
          in
          if admitted then on_granted ()
          else begin
            doom_part t ctx Msg.R_order;
            reply_refuse Msg.R_order
          end
      | Config.Locking -> (
          let wait =
            { w_done = false; w_refuse = reply_refuse; w_timer = None }
          in
          let granted () =
            if not wait.w_done then begin
              wait.w_done <- true;
              Option.iter (Engine.cancel t.engine) wait.w_timer;
              ctx.pt_waits <- List.filter (fun w -> w != wait) ctx.pt_waits;
              on_granted ()
            end
          in
          match
            Lock.acquire t.locks ~txn:ctx.pt_txn ~key ~mode ~on_grant:granted
          with
          | Lock.Granted -> on_granted ()
          | Lock.Waiting ->
              ctx.pt_waits <- wait :: ctx.pt_waits;
              let timer =
                Engine.schedule_after
                  ~label:(Engine.Timer { site = t.id; name = "lock-wait" })
                  t.engine lock_wait_timeout
                  (guarded t (fun () ->
                       if not wait.w_done then
                         doom_part t ctx Msg.R_lock_timeout))
              in
              wait.w_timer <- Some timer;
              (* Break local deadlocks now, not at the lock-wait timeout.
                 A victim with no participant context can only be a
                 stale entry; dropping its locks lets the system move
                 on. *)
              Lock.resolve_deadlocks t.locks ~kill:(fun victim ->
                  match part_ctx t victim with
                  | Some ctx -> doom_part t ctx Msg.R_deadlock
                  | None -> Lock.release_all t.locks ~txn:victim);
              if t.config.probe_deadlocks && not wait.w_done then
                List.iter
                  (fun blocker ->
                    send_probe t ~initiator:ctx.pt_txn ~target:blocker)
                  (Lock.blocking t.locks ~txn:ctx.pt_txn)))

(* This copy's reply to [op]: its version of the key (and the value, for
   a read), or [refused]. *)
let op_reply t (op : Mix.op) refused : Msg.payload =
  match (op, refused) with
  | Mix.Read key, None ->
      Msg.Read_reply
        {
          key;
          result =
            Ok
              ( Option.map (fun (i : Kv.item) -> i.value) (Kv.get t.kv key),
                Kv.version t.kv key );
        }
  | Mix.Read key, Some r -> Msg.Read_reply { key; result = Error r }
  | Mix.Write (key, _), None ->
      Msg.Write_reply { key; result = Ok (Kv.version t.kv key) }
  | Mix.Write (key, _), Some r -> Msg.Write_reply { key; result = Error r }

(* Serve one data operation of [txn] at this copy and [reply] exactly
   once.  A copy still catching up refuses reads but accepts writes: a
   validating copy must not miss commits that land during its transfer.
   An op of an already-decided transaction is a duplicate: refuse it
   without resurrecting a participant context. *)
let serve_op t ~txn (op : Mix.op) ~reply =
  let refuse r = reply (op_reply t op (Some r)) in
  let read = Mix.is_read op in
  if read && t.catching then refuse Msg.R_down
  else if is_decided t txn then refuse Msg.R_doomed
  else
    acquire_for_op t (get_or_create_part t txn)
      ~mode:(if read then Lock.Shared else Lock.Exclusive)
      ~key:(Mix.op_key op)
      ~on_granted:(fun () -> reply (op_reply t op None))
      ~reply_refuse:refuse

(* One logical read or write: assemble the replica-control plan, send
   [op] to every site of it, and collect the replies in [round_reply].
   [k] fires exactly once. *)
let rec run_op t ctx (op : Mix.op) ~k =
  if ctx.co_finished then
    k (Error (match ctx.co_outcome with
              | Some (Aborted r) -> r
              | _ -> Protocol_abort))
  else
    let cached =
      match op with
      | Mix.Read key -> Hashtbl.find_opt ctx.co_cache key
      | Mix.Write _ -> None
    in
    match cached with
    | Some v -> k (Ok (Some v))  (* read-your-writes *)
    | None -> (
        let key = Mix.op_key op in
        let plan = if Mix.is_read op then RC.read_plan else RC.write_plan in
        match
          plan t.config.replica_control ~self:t.id ~up:(up_pred t)
            ~replicas:(Placement.replicas_of_key t.placement key)
        with
        | None -> abort_coord_early t ctx Unavailable
        | Some plan ->
            ctx.co_shards <-
              Sset.add (Placement.shard_of_key t.placement key) ctx.co_shards;
            ctx.co_touched <- Sset.union ctx.co_touched (Sset.of_list plan);
            let timer =
              Engine.schedule_after
                ~label:(Engine.Timer { site = t.id; name = "op-timeout" })
                t.engine op_timeout
                (guarded t (fun () -> abort_coord_early t ctx Op_timeout))
            in
            ctx.co_wait <-
              Some
                {
                  rd_op = op;
                  rd_plan = plan;
                  rd_pending = Sset.of_list plan;
                  rd_version = (if Mix.is_read op then -1 else 0);
                  rd_value = None;
                  rd_timer = timer;
                  rd_k = k;
                };
            List.iter
              (fun dst ->
                if dst = t.id then
                  serve_op t ~txn:ctx.co_txn op ~reply:(fun reply ->
                      (* Loop back asynchronously so reply handling never
                         re-enters. *)
                      ignore
                        (Engine.schedule_after ~label:(Engine.Internal t.id)
                           t.engine Time.zero
                           (guarded t (fun () ->
                                round_reply t ctx ~src:t.id reply))))
                else begin
                  Counter.incr t.counters "data_msgs";
                  t.send_raw ~dst
                    (Msg.txn_msg ctx.co_txn
                       (match op with
                       | Mix.Read key -> Msg.Read_req { key }
                       | Mix.Write (key, value) ->
                           Msg.Write_req { key; value }))
                end)
              plan)

(* [src]'s reply to a data op; only a reply of the current round's kind
   and key counts. *)
and round_reply t ctx ~src (reply : Msg.payload) =
  match (ctx.co_wait, reply) with
  | Some ({ rd_op = Mix.Read key; _ } as rd), Msg.Read_reply { key = k; result }
    when String.equal key k -> (
      match result with
      | Error r -> abort_coord_early t ctx (reason_of_refusal r)
      | Ok (value, version) -> round_answered t ctx rd ~src ~value ~version)
  | ( Some ({ rd_op = Mix.Write (key, _); _ } as rd),
      Msg.Write_reply { key = k; result } )
    when String.equal key k -> (
      match result with
      | Error r -> abort_coord_early t ctx (reason_of_refusal r)
      | Ok version -> round_answered t ctx rd ~src ~value:None ~version)
  | _ -> ()

and round_answered t ctx rd ~src ~value ~version =
  rd.rd_pending <- Sset.remove src rd.rd_pending;
  if version > rd.rd_version then begin
    rd.rd_version <- version;
    rd.rd_value <- value
  end;
  if Sset.is_empty rd.rd_pending then begin
    Engine.cancel t.engine rd.rd_timer;
    (match rd.rd_op with
    | Mix.Read _ -> ()
    | Mix.Write (key, value) ->
        (* Every copy in the plan installs the next version. *)
        let new_version = rd.rd_version + 1 in
        List.iter
          (fun s ->
            Hashtbl.replace ctx.co_site_writes s
              ((key, value, new_version)
              :: Option.value ~default:[]
                   (Hashtbl.find_opt ctx.co_site_writes s)))
          rd.rd_plan;
        Hashtbl.replace ctx.co_cache key value);
    ctx.co_wait <- None;
    rd.rd_k (Ok rd.rd_value)
  end

let begin_commit t ctx =
  if not ctx.co_finished then begin
    let participants = Sset.elements ctx.co_touched in
    if participants = [] then finish_coord t ctx Committed
    else begin
      ctx.co_slot.machine <-
        Some
          (Commit_protocol.coordinator t.config.commit_protocol ~participants
             ~self:t.id);
      feed t Coord ctx P.Start
    end
  end

(* Batch driver: execute a fixed operation list then commit. *)
let rec step_txn t ctx =
  if not ctx.co_finished then
    match ctx.co_ops with
    | [] -> begin_commit t ctx
    | op :: rest ->
        ctx.co_ops <- rest;
        run_op t ctx op ~k:(function
          | Ok _ -> step_txn t ctx
          | Error _ -> ())

let new_coord_ctx t ~ops ~k =
  t.txn_seq <- t.txn_seq + 1;
  let txn =
    Tid.make ~origin:t.id ~seq:t.txn_seq ~start_ts:(Engine.now t.engine)
  in
  let ctx =
    {
      co_txn = txn;
      co_started = Engine.now t.engine;
      co_ops = ops;
      co_touched = Sset.empty;
      co_shards = Sset.empty;
      co_site_writes = Hashtbl.create 8;
      co_cache = Hashtbl.create 8;
      co_slot = new_slot ();
      co_wait = None;
      co_finished = false;
      co_outcome = None;
      co_k = k;
      co_probes_seen = Ids.Txn_map.create 4;
    }
  in
  Ids.Txn_map.replace t.coords txn ctx;
  Counter.incr t.counters "txns_started";
  ctx

let submit t ~ops ~k =
  if not (serving t) then k (Aborted Site_down)
  else step_txn t (new_coord_ctx t ~ops ~k)

(* --- interactive transactions ------------------------------------- *)

type txn = coord_ctx

let begin_txn t =
  if not (serving t) then None
  else Some (new_coord_ctx t ~ops:[] ~k:(fun _ -> ()))

let txn_read t h ~key ~k = run_op t h (Mix.Read key) ~k

let txn_write t h ~key ~value ~k =
  run_op t h (Mix.Write (key, value)) ~k:(fun r -> k (Result.map ignore r))

let txn_commit t h ~k =
  match h.co_outcome with
  | Some outcome -> k outcome
  | None ->
      h.co_k <- k;
      begin_commit t h

let txn_abort t h =
  if not h.co_finished then abort_coord_early t h Protocol_abort

(* ------------------------------------------------------------------ *)
(* Failure-detector wiring                                              *)
(* ------------------------------------------------------------------ *)

let all_machines_feed t input =
  (* Sorted by txn id: feeding a machine emits protocol actions, so the
     feed order is part of the replayed history. *)
  let coords = by_txn t.coords and parts = by_txn t.parts in
  List.iter
    (fun (_, c) -> if c.co_slot.machine <> None then feed t Coord c input)
    coords;
  List.iter
    (fun (_, p) -> if p.pt_slot.machine <> None then feed t Part p input)
    parts

let on_peer_down t peer =
  Counter.incr t.counters "peer_down_events";
  all_machines_feed t (P.Peer_down peer)

let on_peer_up t _peer =
  let view = up_view t in
  all_machines_feed t (P.Peers_reachable view)

let start_hb t =
  match t.hb with
  | Some hb -> Heartbeat.start hb
  | None ->
      let hb =
        Heartbeat.create t.engine ~self:t.id ~peers:t.site_ids
          ~interval:t.config.heartbeat_interval
          ~send_beat:(fun peer ->
            if t.up then t.send_raw ~dst:peer (Msg.site_msg Msg.Heartbeat))
          ~on_down:(fun peer -> if t.up then on_peer_down t peer)
          ~on_up:(fun peer -> if t.up then on_peer_up t peer)
      in
      t.hb <- Some hb;
      Heartbeat.start hb

let start t = start_hb t

(* ------------------------------------------------------------------ *)
(* Catch-up                                                             *)
(* ------------------------------------------------------------------ *)

let inventory t =
  Kv.snapshot t.kv |> List.map (fun (k, (i : Kv.item)) -> (k, i.version))

let handle_catchup_req t ~src keys =
  (* Always answer: a copy that is itself validating marks its reply
     partial — the requester merges it (newer versions only, always
     safe) and keeps rotating until it has either a complete reply or a
     full cycle of merges (which together contain every survivor's
     data). *)
  let theirs = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace theirs k v) keys;
  let entries =
    Kv.snapshot t.kv
    |> List.filter_map (fun (k, (i : Kv.item)) ->
           let their_v = Option.value (Hashtbl.find_opt theirs k) ~default:0 in
           if i.version > their_v then Some (k, i.value, i.version) else None)
  in
  t.send_raw ~dst:src
    (Msg.site_msg (Msg.Catchup_reply { entries; complete = not t.catching }))

let handle_catchup_reply t entries ~complete =
  if t.catching then begin
    List.iter
      (fun (key, value, version) ->
        (* A peer may replicate shards we don't; install only our own. *)
        if
          Placement.owns_key t.placement ~site:t.id key
          && version > Kv.version t.kv key
        then Kv.set t.kv ~key ~value ~version)
      entries;
    if complete then begin
      t.catching <- false;
      Counter.incr t.counters "catchups"
    end
  end


(* ------------------------------------------------------------------ *)
(* Crash and recovery                                                   *)
(* ------------------------------------------------------------------ *)

let crash ?torn t =
  if t.up then begin
    t.up <- false;
    t.catching <- false;
    t.incarnation <- t.incarnation + 1;
    Counter.incr t.counters "crashes";
    Option.iter Heartbeat.stop t.hb;
    (* Only a device that may fail tears its in-flight cycle. *)
    Wal.crash ?torn:(if t.config.Config.storage_faults then torn else None)
      t.wal;
    Kv.clear t.kv;
    t.locks <- Lock.create ();
    t.stamps <- Stamps.create ();
    (* Clients waiting on this coordinator learn the site died. *)
    List.iter
      (fun (_, ctx) ->
        ctx.co_finished <- true;
        Counter.incr t.counters "aborts";
        Counter.incr t.counters ("aborts_" ^ abort_reason_label Site_down);
        ctx.co_k (Aborted Site_down))
      (List.filter (fun (_, ctx) -> not ctx.co_finished) (by_txn t.coords));
    Ids.Txn_map.reset t.coords;
    Ids.Txn_map.reset t.parts;
    Ids.Txn_map.reset t.outcomes;
    Ids.Txn_map.reset t.px_early
  end

(* A crash landing inside the recovery replay window: the site is still
   down, but the scheduled up-transition (and any in-progress replay
   effects in the volatile store) must be discarded so a fresh [recover]
   starts over.  Bumping the incarnation cancels the pending
   up-transition; the store is cleared because replay had already begun
   filling it.  On an up site this is an ordinary crash. *)
let crash_recovering ?torn t =
  if t.up then crash ?torn t
  else begin
    t.incarnation <- t.incarnation + 1;
    Counter.incr t.counters "crashes";
    Wal.crash t.wal;
    Kv.clear t.kv
  end

(* Deterministic fault-injection entry points (nemesis / tests). *)

let corrupt_checkpoint t =
  (* Gated on a previous snapshot existing: the bootstrap checkpoint
     holds preloaded data that is in no log record, so losing it would
     model unrecoverable damage outside this fault class. *)
  if Checkpoint.has_previous t.cp then Checkpoint.corrupt t.cp

let corrupt_wal_record t ~lsn = Wal.corrupt_record t.wal ~lsn

let doubt_state_of (d : Recovery.doubt_state) : P.participant_state =
  match d with
  | Recovery.D_prepared -> P.P_uncertain
  | Recovery.D_precommitted -> P.P_precommitted
  | Recovery.D_preaborted -> P.P_preaborted

let doubt_participants t (d : Recovery.in_doubt) =
  if d.participants = [] then t.site_ids else d.participants

let recover t =
  if not t.up then begin
    t.incarnation <- t.incarnation + 1;
    Counter.incr t.counters "recoveries";
    (* Integrity scan first: validate checksums and the sequence chain in
       LSN order, truncating at the first break.  A torn group-commit
       tail is dropped cleanly; a break below the durable horizon is
       data loss — count it so the audit can report it loudly. *)
    let scan = Wal.scan t.wal in
    t.torn_truncated <- t.torn_truncated + scan.Wal.sc_torn;
    t.corruption_detected <- t.corruption_detected + scan.Wal.sc_corrupt;
    if scan.Wal.sc_torn > 0 then
      Counter.incr t.counters "torn_tails_truncated";
    if scan.Wal.sc_corrupt > 0 then
      Counter.incr t.counters "log_corruption_detected";
    (* Restore the checkpoint (validated: a corrupt latest snapshot falls
       back to the previous one, or to full log replay) and replay the
       durable log now; surface the result only after the simulated
       replay time has passed. *)
    (match Checkpoint.restore_validated t.cp t.kv with
    | Checkpoint.R_latest _ -> ()
    | Checkpoint.R_previous _ ->
        t.cp_fallbacks <- t.cp_fallbacks + 1;
        Counter.incr t.counters "checkpoint_fallbacks"
    | Checkpoint.R_none ->
        if Option.is_some (Checkpoint.latest t.cp) then begin
          t.cp_fallbacks <- t.cp_fallbacks + 1;
          Counter.incr t.counters "checkpoint_fallbacks"
        end);
    let log = Wal.durable_records t.wal in
    let outcome = Recovery.recover t.kv log in
    let duration =
      Recovery.replay_duration ~scanned:outcome.scanned ~redone:outcome.redone
    in
    let inc = t.incarnation in
    ignore
      (Engine.schedule_after ~label:(Engine.Internal t.id) t.engine duration
         (fun () ->
           if t.incarnation = inc && not t.up then begin
             t.up <- true;
             List.iter (fun txn -> decide t txn P.Commit) outcome.committed;
             List.iter (fun txn -> decide t txn P.Abort) outcome.aborted;
             (* Presumed-commit coordinator records without a decision
                must abort. *)
             List.iter (fun txn -> decide t txn P.Abort) outcome.collecting;
             (* An in-doubt transaction coordinated *here* is settled by
                this site's own log where the protocol allows: no
                decision record means no decision was ever distributed,
                so the protocol's amnesiac-origin presumption (after any
                Collecting record, handled above) is the answer the
                coordinator side must give. *)
             List.iter
               (fun (d : Recovery.in_doubt) ->
                 if
                   d.txn.Tid.origin = t.id
                   && not (Ids.Txn_map.mem t.outcomes d.txn)
                 then
                   Option.iter (decide t d.txn)
                     (Commit_protocol.presumption t.config.commit_protocol
                        ~participants:(doubt_participants t d)
                        ~coordinator:t.id))
               outcome.in_doubt;
             (* Rebuild termination machinery for in-doubt transactions. *)
             List.iter
               (fun (d : Recovery.in_doubt) ->
                 let participants = doubt_participants t d in
                 let ctx = get_or_create_part t d.txn in
                 ctx.pt_writes <- d.writes;
                 ctx.pt_participants <- participants;
                 ctx.pt_slot.machine <-
                   Some
                     (Commit_protocol.recovered_participant
                        t.config.commit_protocol ~participants
                        ~coordinator:d.txn.Tid.origin ~self:t.id
                        ~state:(doubt_state_of d.state));
                 feed t Part ctx P.Start)
               outcome.in_doubt;
             (* Catch up missed committed updates when the replica-control
                protocol requires validated copies.  Until the transfer
                completes the site does not heartbeat, so peers keep
                treating it as down and exclude it from plans — the
                classical "validate before serving" discipline.  The
                request retries (rotating peers) until somebody answers. *)
             start_hb t;
             if
               RC.needs_catchup_on_recovery t.config.replica_control
               && t.catchup_peers <> []
             then begin
               t.catching <- true;
               (* Only sites sharing a shard hold data we need; a site
                  replicating nothing has nobody to ask (and nothing to
                  learn). *)
               let peers = t.catchup_peers in
               let n_peers = List.length peers in
               let attempt = ref 0 in
               let rec ask () =
                 if t.catching then
                   if !attempt >= (2 * n_peers) + 2 then begin
                     (* Merged with (or timed out against) every peer at
                        least twice: together with our own log that is the
                        element-wise max of every survivor's state. *)
                     t.catching <- false;
                     Counter.incr t.counters "catchups"
                   end
                   else begin
                     let peer = List.nth peers (!attempt mod n_peers) in
                     incr attempt;
                     t.send_raw ~dst:peer
                       (Msg.site_msg (Msg.Catchup_req { keys = inventory t }));
                     ignore
                       (Engine.schedule_after
                          ~label:
                            (Engine.Timer
                               { site = t.id; name = "catchup-retry" })
                          t.engine P.default_timeouts.resend_every
                          (guarded t ask))
                   end
               in
               ask ()
             end
           end))
  end

let preload t ~entries =
  List.iter
    (fun (key, value) ->
      if Placement.owns_key t.placement ~site:t.id key then
        Kv.set t.kv ~key ~value ~version:1)
    entries;
  Checkpoint.take t.cp ~kv:t.kv ~lsn:(Wal.durable_lsn t.wal)
    ~shard_of:(Placement.shard_of_key t.placement)

(* ------------------------------------------------------------------ *)
(* Delivery entry point                                                 *)
(* ------------------------------------------------------------------ *)

let receive t ~src (msg : Msg.t) =
  if t.up then
    match (msg.txn, msg.payload) with
    | None, Msg.Heartbeat ->
        Option.iter (fun hb -> Heartbeat.beat_received hb ~from:src) t.hb
    | None, Msg.Catchup_req { keys } -> handle_catchup_req t ~src keys
    | None, Msg.Catchup_reply { entries; complete } ->
        handle_catchup_reply t entries ~complete
    | Some txn, Msg.Read_req { key } ->
        serve_op t ~txn (Mix.Read key) ~reply:(fun reply ->
            t.send_raw ~dst:src (Msg.txn_msg txn reply))
    | Some txn, Msg.Write_req { key; value } ->
        serve_op t ~txn (Mix.Write (key, value)) ~reply:(fun reply ->
            t.send_raw ~dst:src (Msg.txn_msg txn reply))
    | Some txn, ((Msg.Read_reply _ | Msg.Write_reply _) as reply) -> (
        match Ids.Txn_map.find_opt t.coords txn with
        | Some ctx -> round_reply t ctx ~src reply
        | None -> ())
    | Some txn, Msg.Abort_txn -> handle_abort_txn t txn
    | Some txn, Msg.Probe { initiator } ->
        handle_probe t ~initiator ~target:txn
    | Some txn, Msg.Commit_msg { pmsg; prepare } ->
        route_commit_msg t ~src txn pmsg prepare
    | Some _, (Msg.Heartbeat | Msg.Catchup_req _ | Msg.Catchup_reply _)
    | None,
      ( Msg.Read_req _ | Msg.Read_reply _ | Msg.Write_req _
      | Msg.Write_reply _ | Msg.Abort_txn | Msg.Commit_msg _ | Msg.Probe _ )
      ->
        ()

(* ------------------------------------------------------------------ *)
(* Canonical state dump (schedule explorer)                           *)
(* ------------------------------------------------------------------ *)

let tid_str txn = Format.asprintf "%a" Tid.pp txn
let sset_str s = String.concat "," (List.map string_of_int (Sset.elements s))

let writes_str ws =
  List.sort
    (fun (k1, v1, n1) (k2, v2, n2) ->
      let c = String.compare k1 k2 in
      if c <> 0 then c
      else
        let c = String.compare v1 v2 in
        if c <> 0 then c else Int.compare n1 n2)
    ws
  |> List.map (fun (k, v, n) -> Printf.sprintf "%s=%s@%d" k v n)
  |> String.concat ","

let timers_str timers =
  Hashtbl.fold (fun tm _ acc -> P.timer_point tm :: acc) timers []
  |> List.sort String.compare |> String.concat ","

let machine_str = function
  | None -> "-"
  | Some m -> Erased.describe m

(* Canonical rendering of everything that can influence future behaviour
   — store, log, checkpoints, locks, TO stamps, live protocol contexts
   (including the full machine state via [Erased.describe]), decision
   tables, and the failure-detector view.  Every hash table is rendered
   in sorted key order, so two states that differ only in insertion
   history dump identically.  Exploration-irrelevant bookkeeping
   (metrics, latency samples, engine event ids) is deliberately
   excluded. *)
let dump t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let item_str (k, { Kv.value; version }) =
    Printf.sprintf "%s=%s@%d;" k value version
  in
  add "site%d up=%b catching=%b seq=%d cp=%d\n" t.id t.up t.catching t.txn_seq
    t.commits_since_cp;
  add "kv:";
  List.iter (fun e -> add "%s" (item_str e)) (Kv.snapshot t.kv);
  add "\nwal:%s\n"
    (Wal.dump t.wal ~record:(fun r -> Format.asprintf "%a" LR.pp r));
  add "cp:%d" (Checkpoint.count t.cp);
  (match Checkpoint.latest t.cp with
  | None -> ()
  | Some (snap, lsn) ->
      add "@%d{" lsn;
      List.iter (fun e -> add "%s" (item_str e)) snap;
      add "}");
  add "\nlocks:";
  List.iter
    (fun (key, holders, waiting) ->
      let side l =
        String.concat ","
          (List.map
             (fun (txn, m) ->
               Format.asprintf "%a/%a" Tid.pp txn Lock.pp_mode m)
             l)
      in
      add "%s{h=%s;w=%s};" key (side holders) (side waiting))
    (Lock.dump t.locks);
  add "\nto:%s" (Stamps.dump t.stamps);
  add "\nparts:";
  let parts = by_txn t.parts and coords = by_txn t.coords in
  List.iter
    (fun (txn, ctx) ->
      add "%s{w=%s;ps=%s;m=%s;d=%s;res=%b;swp=%b;tm=%s;waits=%d};"
        (tid_str txn) (writes_str ctx.pt_writes)
        (String.concat ","
           (List.map string_of_int
              (List.sort Int.compare ctx.pt_participants)))
        (machine_str ctx.pt_slot.machine)
        (match ctx.pt_doomed with
        | None -> "-"
        | Some r -> Format.asprintf "%a" Msg.pp_refusal r)
        ctx.pt_resolved
        (Option.is_some ctx.pt_sweep)
        (timers_str ctx.pt_slot.timers)
        (List.length (List.filter (fun w -> not w.w_done) ctx.pt_waits)))
    parts;
  add "\ncoords:";
  List.iter
    (fun (txn, ctx) ->
      let op_str = function
        | Mix.Read k -> Printf.sprintf "r(%s)" k
        | Mix.Write (k, v) -> Printf.sprintf "w(%s=%s)" k v
      in
      let wait_str =
        match ctx.co_wait with
        | None -> "-"
        | Some { rd_op = Mix.Read key; rd_pending; rd_version; _ } ->
            Printf.sprintf "read{%s;p=%s;v=%d}" key (sset_str rd_pending)
              rd_version
        | Some { rd_op = Mix.Write (key, value); rd_pending; rd_version; _ } ->
            Printf.sprintf "write{%s=%s;p=%s;mv=%d}" key value
              (sset_str rd_pending) rd_version
      in
      let site_writes =
        Det.sorted_bindings ~cmp:Int.compare ctx.co_site_writes
        |> List.map (fun (s, ws) -> Printf.sprintf "%d:%s" s (writes_str ws))
        |> String.concat "|"
      in
      let cache =
        Det.sorted_bindings ~cmp:String.compare ctx.co_cache
        |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
        |> String.concat ","
      in
      add "%s{ops=%s;tch=%s;sh=%s;m=%s;wait=%s;fin=%b;out=%s;tm=%s;sw=%s;c=%s};"
        (tid_str txn)
        (String.concat "," (List.map op_str ctx.co_ops))
        (sset_str ctx.co_touched) (sset_str ctx.co_shards)
        (machine_str ctx.co_slot.machine) wait_str ctx.co_finished
        (match ctx.co_outcome with
        | None -> "-"
        | Some Committed -> "C"
        | Some (Aborted r) -> "A:" ^ abort_reason_label r)
        (timers_str ctx.co_slot.timers) site_writes cache)
    coords;
  (* [presumed] is every answer the site gives, [decided] the genuine
     outcomes among them. *)
  let outcomes = by_txn t.outcomes in
  let decisions tag decision_of =
    add "\n%s:" tag;
    List.iter
      (fun (txn, known) ->
        Option.iter
          (fun d ->
            add "%s=%s;" (tid_str txn)
              (match d with P.Commit -> "C" | P.Abort -> "A"))
          (decision_of known))
      outcomes
  in
  decisions "presumed" (function Pledged -> Some P.Abort | Decided d -> Some d);
  decisions "decided" (function Pledged -> None | Decided d -> Some d);
  add "\nfirst_lsn:";
  let pin role txn slot =
    Option.iter (add "%s%s=%d;" role (tid_str txn)) slot.pin
  in
  List.iter (fun (txn, ctx) -> pin "" txn ctx.pt_slot) parts;
  List.iter (fun (txn, ctx) -> pin "coord:" txn ctx.co_slot) coords;
  add "\nview:%s\n"
    (String.concat "," (List.map string_of_int (up_view t)));
  Buffer.contents buf
