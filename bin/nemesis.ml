(* Command-line driver for nemesis fault campaigns: run the scenario ×
   protocol × placement matrix under a client fleet, audit the shared
   invariants, and exit 0 when they hold and 1 on any violation (124 is a
   command-line error) so CI can gate on it.  Output is byte-identical for
   a given seed.

     dune exec bin/nemesis.exe -- --help                       *)

open Cmdliner
module Scenario = Rt_nemesis.Scenario
module Campaign = Rt_nemesis.Campaign
module Time = Rt_sim.Time

let rc_of_string ~sites s =
  match Rt_replica.Replica_control.of_name ~sites s with
  | Some rc -> Ok rc
  | None -> Error (Printf.sprintf "unknown replica control %S" s)

let scenario_of_string = function
  | "calm" -> Ok Scenario.calm
  | "lossy" -> Ok (Scenario.lossy ())
  | "gray" -> Ok Scenario.gray
  | "flapping" -> Ok Scenario.flapping
  | "one-way" -> Ok Scenario.one_way
  | "churn" -> Ok Scenario.churn
  | "coordinator" -> Ok Scenario.coordinator_faults
  | s -> Error (Printf.sprintf "unknown scenario %S" s)

let txn_rate committed duration =
  float_of_int committed /. Time.to_float_s duration

let abort_pct committed aborted =
  if committed + aborted = 0 then 0.
  else 100. *. float_of_int aborted /. float_of_int (committed + aborted)

(* N1: throughput and abort rate vs message-drop probability. *)
let experiment_n1 ~seed ~sites ~clients ~duration =
  let drops = [ 0.0; 0.02; 0.05; 0.1; 0.2 ] in
  Printf.printf "| protocol | drop | committed | committed/s | abort %% |\n";
  Printf.printf "|---|---|---|---|---|\n";
  let violations = ref 0 in
  List.iter
    (fun protocol ->
      List.iter
        (fun drop ->
          let scenario = Scenario.lossy ~drop ~duplicate:(drop /. 2.) () in
          let r, _ =
            Campaign.run_one ~seed ~sites ~clients ~duration ~scenario
              ~protocol ~placement:("full", None) ()
          in
          violations := !violations + List.length r.r_violations;
          Printf.printf "| %s | %.2f | %d | %.0f | %.1f |\n" (fst protocol)
            drop r.r_committed
            (txn_rate r.r_committed duration)
            (abort_pct r.r_committed r.r_aborted))
        drops)
    Rt_commit.Commit_protocol.all;
  !violations

(* N2: termination time and message overhead under flapping and
   asymmetric (one-way) partitions. *)
let experiment_n2 ~seed ~sites ~clients ~duration =
  let scenarios =
    [ Scenario.calm; Scenario.flapping; Scenario.one_way ]
  in
  Printf.printf
    "| scenario | protocol | committed | abort %% | drain | sent | msgs/txn |\n";
  Printf.printf "|---|---|---|---|---|---|---|\n";
  let violations = ref 0 in
  List.iter
    (fun scenario ->
      List.iter
        (fun protocol ->
          let r, _ =
            Campaign.run_one ~seed ~sites ~clients ~duration ~scenario
              ~protocol ~placement:("full", None) ()
          in
          violations := !violations + List.length r.r_violations;
          let txns = r.r_committed + r.r_aborted in
          Printf.printf "| %s | %s | %d | %.1f | %s | %d | %.1f |\n"
            r.r_scenario (fst protocol) r.r_committed
            (abort_pct r.r_committed r.r_aborted)
            (match r.r_drain with
            | None -> "stuck"
            | Some d -> Printf.sprintf "%dms" (d / Time.ms 1))
            r.r_sent
            (if txns = 0 then 0. else float_of_int r.r_sent /. float_of_int txns))
        Rt_commit.Commit_protocol.all)
    scenarios;
  !violations

let run seed sites clients duration_ms rc_name scenario_names experiment =
  let ( let* ) = Result.bind in
  let parsed =
    let* rc = rc_of_string ~sites rc_name in
    let* scenarios =
      List.fold_left
        (fun acc name ->
          let* acc = acc in
          let* s = scenario_of_string name in
          Ok (s :: acc))
        (Ok []) scenario_names
    in
    Ok (rc, List.rev scenarios)
  in
  match parsed with
  | Error e -> `Error (false, e)
  | Ok (rc, chosen) ->
      let duration = Time.ms duration_ms in
      let violations =
        match experiment with
        | Some "N1" -> experiment_n1 ~seed ~sites ~clients ~duration
        | Some "N2" -> experiment_n2 ~seed ~sites ~clients ~duration
        | Some other ->
            Printf.eprintf "unknown experiment %S (N1 or N2)\n" other;
            exit 124
        | None ->
            let scenarios =
              match chosen with [] -> Campaign.default_scenarios | ss -> ss
            in
            let results =
              Campaign.run ~seed ~sites ~clients ~duration ~rc ~scenarios ()
            in
            (* Same matrix again over full replication with WAL group
               commit and link batching on: envelope-level loss, dup and
               sever faults and the flush-window timers must uphold the
               same invariants. *)
            let batched =
              Campaign.run ~seed ~sites ~clients ~duration ~rc ~scenarios
                ~tune:Rt_core.Config.batched
                ~placements:[ ("full+gcb", None) ]
                ()
            in
            let results = results @ batched in
            print_string (Campaign.render results);
            Campaign.total_violations results
      in
      if violations = 0 then `Ok () else exit 1

let seed_arg =
  let doc = "DES seed; output is byte-identical for a given seed." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let sites_arg =
  Arg.(value & opt int 5 & info [ "sites" ] ~doc:"Number of replica sites.")

let clients_arg =
  Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Closed-loop clients.")

let duration_arg =
  Arg.(
    value & opt int 300
    & info [ "duration-ms" ] ~doc:"Fault window per run (simulated ms).")

let rc_arg =
  Arg.(
    value & opt string "rowa"
    & info [ "rc" ]
        ~doc:
          "Replica control: rowa, rowa-a, quorum, primary.  The default \
           (rowa) never forks, so every audit failure is a protocol bug.")

let scenario_arg =
  Arg.(
    value & opt_all string []
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "Scenario filter (repeatable): calm, lossy, gray, flapping, \
           one-way, churn, coordinator.  Default: all of them.")

let experiment_arg =
  Arg.(
    value & opt (some string) None
    & info [ "experiment" ] ~docv:"N1|N2"
        ~doc:
          "Run a measurement table instead of the audit campaign: N1 = \
           throughput/abort rate vs drop probability; N2 = termination \
           time and message overhead under flapping and one-way \
           partitions.")

let cmd =
  let exits = Cmd.Exit.info 1 ~doc:"on a failed audit." :: Cmd.Exit.defaults in
  let doc = "Composable network-fault campaigns with invariant auditing" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Each run drives a cluster with a client fleet while a fault \
         scenario injects message loss, duplication, gray links, flapping \
         or one-way partitions, and crash/recover churn; afterwards the \
         network heals, every site recovers, and the shared audit checks \
         agreement, durability, fork-freedom, lock/timer hygiene, and \
         bounded termination.  See docs/NEMESIS.md.";
    ]
  in
  Cmd.v
    (Cmd.info "nemesis" ~version:"1.0" ~doc ~man ~exits)
    Term.(
      ret
        (const run $ seed_arg $ sites_arg $ clients_arg $ duration_arg
       $ rc_arg $ scenario_arg $ experiment_arg))

let () = exit (Cmd.eval cmd)
