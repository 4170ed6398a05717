(* Command-line driver for the disk-fault nemesis campaign: torn WAL
   writes, checkpoint corruption, and recovery-time re-crashes composed
   across the protocol × placement matrix, audited by the shared
   invariant battery.  It exits 0 when the audit is clean and 1 on any
   violation (124 is a command-line error) so CI can gate on it; output
   is byte-identical per seed.

     dune exec bin/disk_nemesis.exe -- --help                       *)

open Cmdliner
module Disk = Rt_nemesis.Disk
module Campaign = Rt_nemesis.Campaign
module Time = Rt_sim.Time

let run seed sites clients duration_ms =
  let results =
    Disk.run ~seed ~sites ~clients ~duration:(Time.ms duration_ms) ()
  in
  print_string (Disk.render results);
  let violations = Campaign.total_violations results in
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

let cmd =
  let exits = Cmd.Exit.info 1 ~doc:"on a failed audit." :: Cmd.Exit.defaults in
  let doc = "Disk-fault campaigns: torn writes, corrupt checkpoints, re-crashes" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Each run drives a cluster with a client fleet while a disk-fault \
         scenario injects torn WAL device cycles, corrupted checkpoint \
         snapshots, and re-crashes during recovery; afterwards every site \
         recovers and the shared audit checks agreement, durability, \
         fork-freedom, lock/timer hygiene, bounded termination, and the \
         storage identity started = completed + lost + torn.  See \
         docs/RECOVERY.md (Storage faults).";
    ]
  in
  Cmd.v
    (Cmd.info "disk_nemesis" ~version:"1.0" ~doc ~man ~exits)
    Term.(
      ret (const run $ seed_arg $ sites_arg $ clients_arg $ duration_arg))

let () = exit (Cmd.eval cmd)
