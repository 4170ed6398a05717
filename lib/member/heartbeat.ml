open Rt_sim
open Rt_types

type peer_state = { mutable last_heard : Time.t; mutable up : bool }

(* A peer silent for this many consecutive intervals is declared down. *)
let miss_threshold = 3

type t = {
  engine : Engine.t;
  self : Ids.site_id;
  (* Dense by site id ([None] = self or not a peer): membership is fixed
     at creation and site ids are dense, so ascending index order IS
     sorted site order — peer traversals on the tick path need no
     hash-table walk and no sort. *)
  peers : peer_state option array;
  interval : Time.t;
  send_beat : Ids.site_id -> unit;
  on_down : Ids.site_id -> unit;
  on_up : Ids.site_id -> unit;
  mutable running : bool;
  mutable epoch : int;  (* invalidates scheduled ticks after stop *)
}

let create engine ~self ~peers ~interval ~send_beat ~on_down ~on_up =
  List.iter
    (fun p -> if p < 0 then invalid_arg "Heartbeat: negative site id")
    peers;
  let limit = List.fold_left (fun acc p -> max acc (p + 1)) (self + 1) peers in
  let table = Array.make limit None in
  List.iter
    (fun p ->
      if p <> self then
        table.(p) <- Some { last_heard = Engine.now engine; up = true })
    peers;
  {
    engine;
    self;
    peers = table;
    interval;
    send_beat;
    on_down;
    on_up;
    running = false;
    epoch = 0;
  }

let iter_peers t f =
  Array.iteri
    (fun peer st -> match st with None -> () | Some st -> f peer st)
    t.peers

let peer_state t site =
  if site < 0 || site >= Array.length t.peers then None else t.peers.(site)

(* Peers are visited in ascending site order so the on_down/on_up callback
   and beat-send sequences are a function of the membership — they
   schedule simulator events. *)
let check t =
  let now = Engine.now t.engine in
  let deadline = miss_threshold * t.interval in
  iter_peers t (fun peer st ->
      if st.up && Time.sub now st.last_heard > deadline then begin
        st.up <- false;
        t.on_down peer
      end)

let rec tick t epoch () =
  if t.running && t.epoch = epoch then begin
    iter_peers t (fun peer _ -> t.send_beat peer);
    check t;
    ignore
      (Engine.schedule_after
         ~label:(Engine.Recurring { site = t.self; name = "heartbeat" })
         t.engine t.interval (tick t epoch))
  end

let start t =
  if not t.running then begin
    t.running <- true;
    t.epoch <- t.epoch + 1;
    (* Reset suspicion so a restarted site gives peers a full window. *)
    let now = Engine.now t.engine in
    iter_peers t (fun _ st -> st.last_heard <- now);
    tick t t.epoch ()
  end

let stop t =
  t.running <- false;
  t.epoch <- t.epoch + 1

let beat_received t ~from =
  match peer_state t from with
  | None -> ()
  | Some st ->
      st.last_heard <- Engine.now t.engine;
      if not st.up then begin
        st.up <- true;
        t.on_up from
      end

let is_up t site =
  if site = t.self then t.running
  else match peer_state t site with Some st -> st.up | None -> false

let up_peers t =
  let acc = ref [] in
  iter_peers t (fun p st -> if st.up then acc := p :: !acc);
  List.rev !acc
