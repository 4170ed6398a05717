open Rt_sim
open Rt_core

type case = {
  cs_protocol : string;
  cs_n : int;
  cs_placement : string;  (* "full" or a sharded configuration name *)
  cs_site : int;
  cs_role : string;
  cs_point : string;
  cs_occurrence : int;
  cs_torn : int option;
      (* Some k: tear the in-flight device cycle so only k of its records
         survive the crash.  None: the classical atomic crash. *)
}

let pp_case fmt c =
  Format.fprintf fmt "%s n=%d %s %s(site %d) %s#%d%s" c.cs_protocol c.cs_n
    c.cs_placement c.cs_role c.cs_site c.cs_point c.cs_occurrence
    (match c.cs_torn with
    | None -> ""
    | Some k -> Printf.sprintf " torn=%d" k)

type violation = { v_case : case; v_invariant : string; v_detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "[%a] %s: %s" pp_case v.v_case v.v_invariant v.v_detail

type summary = {
  sm_protocol : string;
  sm_n : int;
  sm_placement : string;
  sm_points : int;  (* distinct (site, point) pairs targeted *)
  sm_cases : int;
  sm_violations : int;
}

type report = {
  rp_summaries : summary list;
  rp_violations : violation list;
  rp_cases : int;
}

let default_protocols =
  List.map
    (function
      | name, Config.Paxos_commit _ ->
          (* F = 1 keeps a 2F+1 = 3 acceptor group even at n = 5, so the
             larger sweep has genuine non-acceptor participants to
             crash. *)
          (name, Config.Paxos_commit { f = Some 1 })
      | entry -> entry)
    Rt_commit.Commit_protocol.all

let default_ns = [ 3; 5 ]

(* Two range shards split at "b" (workload key "a" → shard 0, "b" →
   shard 1), round-robin replica sets of 3: for n=5 that is shard 0 on
   {0,1,2} and shard 1 on {1,2,3} — the coordinator (site 0) replicates
   one shard, the targeted participant (site 1) both, and site 4
   nothing, so the sweep exercises cross-shard 2PC/3PC/QC, partial
   participant sets, and non-replica hygiene all at once. *)
let sharded_placement ~n =
  Rt_placement.Placement.create
    ~map:(Rt_placement.Shard_map.range ~boundaries:[ "b" ])
    ~sites:n
    ~degree:(min 3 (n - 1))
    ()

type placement_choice = Full | Sharded of Rt_placement.Placement.t | Skip

type sweep_config = {
  cf_name : string;
  cf_choose : int -> placement_choice;
  cf_tune : Config.t -> Config.t;
      (* Knob adjustments applied after the base config is built — lets a
         sweep variant turn on group commit or batching without a new
         placement. *)
  cf_torn : bool;
      (* Enumerate torn-write variants of every "wal:force-durable"
         point: for a cycle of n records, crash after k of them for each
         k < n.  Requires cf_tune to arm storage_faults. *)
}

let configs =
  [
    {
      cf_name = "full";
      cf_choose = (fun _ -> Full);
      cf_tune = Fun.id;
      cf_torn = false;
    };
    {
      cf_name = "sharded";
      cf_choose =
        (fun n ->
          (* Below 4 sites a 3-replica shard is not genuinely partial. *)
          if n >= 4 then Sharded (sharded_placement ~n) else Skip);
      cf_tune = Fun.id;
      cf_torn = false;
    };
    {
      (* Group commit moves the force boundaries (the flush-window timer
         sits between enqueue and device start) and batching moves the
         delivery boundaries; the sweep re-discovers its crash points
         under both, so every new window edge gets an injection. *)
      cf_name = "full+gc";
      cf_choose = (fun _ -> Full);
      cf_tune = Config.batched;
      cf_torn = false;
    };
    {
      (* Torn-write sweep: the same group-commit window as full+gc so
         device cycles cover several records, with storage faults armed.
         Each observed "wal:force-durable" cycle of n records yields n
         extra injections — crash after k of n, for every k < n — on top
         of the classical atomic-crash case (k = n is that case). *)
      cf_name = "full+torn";
      cf_choose = (fun _ -> Full);
      cf_tune = (fun c -> { (Config.batched c) with storage_faults = true });
      cf_torn = true;
    };
  ]

(* The swept run: one distributed write transaction submitted at site 0.
   Under ROWA every site is a write participant, which is exactly what
   the durability invariant needs.  The horizon leaves ample room for
   recovery (100 ms after the crash) plus protocol termination. *)
let horizon = Time.sec 3
let recover_after = Time.ms 100
let workload = [ Rt_workload.Mix.Write ("a", "1"); Rt_workload.Mix.Write ("b", "2") ]

(* Crash targets, by protocol.  For 2PC/3PC/QC site 0 is the coordinator
   and site 1 a representative participant.  Paxos Commit (swept at
   F = 1: acceptors {0, 1, 2}) distinguishes three crash roles — site 0
   is the ballot-0 leader with a co-located acceptor, site 1 a pure
   acceptor, and site 3 (present once n ≥ 4) a plain participant with no
   acceptor duties. *)
let roles ~protocol ~n =
  match protocol with
  | Config.Paxos_commit _ ->
      (0, "leader") :: (1, "acceptor")
      :: (if n >= 4 then [ (3, "participant") ] else [])
  | Config.Two_phase _ | Config.Three_phase | Config.Quorum_commit _ ->
      [ (0, "coordinator"); (1, "participant") ]

let make_cluster ?placement ?(tune = Fun.id) ~protocol ~n ~seed () =
  let config =
    tune
      { (Config.default ~sites:n ()) with commit_protocol = protocol;
        placement; seed }
  in
  Cluster.create config

let start_workload cluster =
  let outcome = ref None in
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Time.ms 1) (fun () ->
         Cluster.submit cluster ~site:0 ~ops:workload ~k:(fun o ->
             outcome := Some o)));
  outcome

(* Discovery pass: run the workload uninjected and record the ordered
   stream of (site, point, cycle-size) announcements for the sites we
   target.  The cycle size is the WAL's in-flight device-cycle record
   count at announcement time — the [n] a torn sweep enumerates k < n
   from at "wal:force-durable" points. *)
let discover ?placement ?tune ~protocol ~n ~seed () =
  let cluster = make_cluster ?placement ?tune ~protocol ~n ~seed () in
  let points = Rt_core.Failure.observe_crash_points_sized cluster in
  let _outcome = start_workload cluster in
  Cluster.run ~until:horizon cluster;
  let targets = roles ~protocol ~n in
  List.filter (fun (s, _, _) -> List.mem_assoc s targets) (points ())

(* The invariant battery itself lives in Rt_core.Audit (shared with soak
   and the nemesis campaigns); here we only add the sweep-specific checks
   (crash point reached, client outcome fired) and tag each violation
   with the case.  Audit.standard runs quiescence first — it drives the
   cluster one second past the horizon, so every later check sees the
   fully drained state. *)
let audit ~case ~cluster ~outcome ~reached =
  let pre = ref [] in
  let add v_invariant v_detail =
    pre := { v_case = case; v_invariant; v_detail } :: !pre
  in
  if not reached then
    add "determinism" "target crash point not reached in injection run";
  let writes =
    List.filter_map
      (function
        | Rt_workload.Mix.Write (k, v) -> Some (k, v)
        | Rt_workload.Mix.Read _ -> None)
      workload
  in
  let vs = Audit.standard ~writes ~settle:(Time.sec 1) cluster in
  (match !outcome with
  | None -> add "termination" "client outcome never fired"
  | Some _ -> ());
  List.rev !pre
  @ List.map
      (fun { Audit.inv; detail } ->
        { v_case = case; v_invariant = inv; v_detail = detail })
      vs

let run_case ?placement ?tune ~case ~protocol ~seed () =
  let cluster = make_cluster ?placement ?tune ~protocol ~n:case.cs_n ~seed () in
  let injected =
    Rt_core.Failure.crash_at_point cluster ?torn:case.cs_torn
      ~site:case.cs_site ~point:case.cs_point ~occurrence:case.cs_occurrence
      ~recover_after ()
  in
  let outcome = start_workload cluster in
  Cluster.run ~until:horizon cluster;
  audit ~case ~cluster ~outcome ~reached:(injected ())

let sweep ?(seed = 0) ?(protocols = default_protocols) ?(ns = default_ns) () =
  let summaries = ref [] in
  let violations = ref [] in
  let total = ref 0 in
  List.iter
    (fun (name, protocol) ->
      List.iter
        (fun n ->
          List.iter
            (fun cf ->
              match cf.cf_choose n with
              | Skip -> ()
              | (Full | Sharded _) as choice ->
                  let placement =
                    match choice with
                    | Sharded p -> Some p
                    | Full | Skip -> None
                  in
                  let stream =
                    discover ?placement ~tune:cf.cf_tune ~protocol ~n ~seed ()
                  in
                  let targets = roles ~protocol ~n in
                  (* Each occurrence in the discovery stream is one
                     injection. *)
                  let occ = Hashtbl.create 32 in
                  let cases =
                    List.concat_map
                      (fun (site, point, cycle) ->
                        let k =
                          1
                          + Option.value
                              (Hashtbl.find_opt occ (site, point))
                              ~default:0
                        in
                        Hashtbl.replace occ (site, point) k;
                        let base =
                          {
                            cs_protocol = name;
                            cs_n = n;
                            cs_placement = cf.cf_name;
                            cs_site = site;
                            cs_role = List.assoc site targets;
                            cs_point = point;
                            cs_occurrence = k;
                            cs_torn = None;
                          }
                        in
                        let torn_variants =
                          (* Each k < n is a distinct torn crash; k = n
                             is the atomic case already covered. *)
                          if
                            cf.cf_torn
                            && String.equal point "wal:force-durable"
                            && cycle > 0
                          then
                            List.init cycle (fun j ->
                                { base with cs_torn = Some j })
                          else []
                        in
                        base :: torn_variants)
                      stream
                  in
                  let vs =
                    List.concat_map
                      (fun case ->
                        run_case ?placement ~tune:cf.cf_tune ~case ~protocol
                          ~seed ())
                      cases
                  in
                  total := !total + List.length cases;
                  violations := !violations @ vs;
                  summaries :=
                    {
                      sm_protocol = name;
                      sm_n = n;
                      sm_placement = cf.cf_name;
                      sm_points = Hashtbl.length occ;
                      sm_cases = List.length cases;
                      sm_violations = List.length vs;
                    }
                    :: !summaries)
            configs)
        ns)
    protocols;
  {
    rp_summaries = List.rev !summaries;
    rp_violations = !violations;
    rp_cases = !total;
  }

let render report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "| protocol | n | placement | crash points | cases | violations |\n";
  Buffer.add_string buf "|---|---|---|---|---|---|\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %d | %s | %d | %d | %d |\n" s.sm_protocol
           s.sm_n s.sm_placement s.sm_points s.sm_cases s.sm_violations))
    report.rp_summaries;
  Buffer.add_string buf
    (Printf.sprintf "\ntotal: %d cases, %d violations\n" report.rp_cases
       (List.length report.rp_violations));
  List.iter
    (fun v ->
      Buffer.add_string buf (Format.asprintf "%a\n" pp_violation v))
    report.rp_violations;
  Buffer.contents buf
