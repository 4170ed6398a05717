open Rt_sim

type commit_protocol = Rt_commit.Commit_protocol.t =
  | Two_phase of Rt_commit.Two_pc.variant
  | Three_phase
  | Quorum_commit of { commit_quorum : int option; abort_quorum : int option }
  | Paxos_commit of { f : int option }

type concurrency = Locking | Timestamp

let concurrency_name = function
  | Locking -> "2PL"
  | Timestamp -> "TO"

type t = {
  sites : int;
  concurrency : concurrency;
  commit_protocol : commit_protocol;
  replica_control : Rt_replica.Replica_control.t;
  placement : Rt_placement.Placement.t option;
  link : Rt_net.Net.link;
  force_latency : Time.t;
  group_commit_window : Time.t;
  batch_window : Time.t option;
  heartbeat_interval : Time.t;
  checkpoint_every : int;
  probe_deadlocks : bool;
  read_only_optimization : bool;
  storage_faults : bool;
  px_early_stash_cap : int;
  seed : int;
}

let default ?(sites = 3) () =
  {
    sites;
    concurrency = Locking;
    commit_protocol = Two_phase Rt_commit.Two_pc.Presumed_abort;
    replica_control = Rt_replica.Replica_control.rowa;
    placement = None;
    link =
      Rt_net.Net.reliable_link
        (Rt_net.Latency.Exponential { min = Time.us 20; mean = Time.us 100 });
    force_latency = Time.us 50;
    group_commit_window = Time.zero;
    batch_window = None;
    heartbeat_interval = Time.ms 10;
    checkpoint_every = 0;
    probe_deadlocks = false;
    read_only_optimization = false;
    storage_faults = false;
    px_early_stash_cap = 32;
    seed = 0;
  }

let placement t =
  match t.placement with
  | Some p -> p
  | None -> Rt_placement.Placement.full ~sites:t.sites

let batched t =
  { t with group_commit_window = Time.us 20; batch_window = Some (Time.us 10) }

let validate t =
  if t.sites <= 0 then invalid_arg "Config: sites must be positive";
  let non_negative name v =
    if Rt_sim.Time.(v < zero) then
      invalid_arg (Printf.sprintf "Config: %s must be non-negative" name)
  in
  non_negative "force_latency" t.force_latency;
  non_negative "group_commit_window" t.group_commit_window;
  (match t.batch_window with
  | None -> ()
  | Some w ->
      if Rt_sim.Time.(w <= zero) then
        invalid_arg "Config: batch_window must be positive when set");
  if Rt_sim.Time.(t.heartbeat_interval <= zero) then
    invalid_arg "Config: heartbeat_interval must be positive";
  if t.checkpoint_every < 0 then
    invalid_arg "Config: checkpoint_every must be non-negative";
  if t.px_early_stash_cap <= 0 then
    invalid_arg "Config: px_early_stash_cap must be positive";
  (match t.placement with
  | None -> ()
  | Some p ->
      (* Placement.create already rejects degree < 1 and degree > sites of
         its own site count; here the placement must also describe *this*
         cluster. *)
      if Rt_placement.Placement.sites p <> t.sites then
        invalid_arg "Config: placement site count does not match sites";
      if Rt_placement.Placement.degree p > t.sites then
        invalid_arg "Config: replication degree exceeds site count";
      if Rt_placement.Placement.degree p < 1 then
        invalid_arg "Config: replication degree must be at least 1");
  (match t.replica_control with
  | Rt_replica.Replica_control.Primary_copy p ->
      if p < 0 || p >= t.sites then
        invalid_arg "Config: primary site out of range"
  | Rt_replica.Replica_control.Quorum v ->
      if Rt_quorum.Votes.sites v <> t.sites then
        invalid_arg "Config: quorum vote assignment does not match site count"
  | Rt_replica.Replica_control.Rowa
  | Rt_replica.Replica_control.Available_copies ->
      ());
  Rt_commit.Commit_protocol.validate t.commit_protocol ~sites:t.sites
