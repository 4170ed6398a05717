(* Protocol tour: what each atomic-commitment protocol costs and how it
   behaves when the coordinator dies at the worst moment.

   Part 1 runs one committed transaction under every protocol in the
   deterministic sandbox and prints the exact message and log-force
   counts — the trade-off table behind the presumption variants.

   Part 2 kills the coordinator mid-protocol and shows which protocols
   leave survivors blocked (2PC) and which terminate on their own (3PC,
   quorum commit with a live majority, Paxos Commit with a live acceptor
   quorum).

     dune exec examples/protocol_tour.exe *)

open Rt_commit
module P = Protocol

let protos = List.map snd Commit_protocol.all

let () =
  let sites = 3 in
  Printf.printf
    "Part 1: failure-free cost of one committed transaction (%d sites)\n\n"
    sites;
  Printf.printf "  %-10s %10s %14s %12s\n" "protocol" "messages"
    "forced writes" "lazy writes";
  List.iter
    (fun proto ->
      let o =
        Sandbox.run_fifo ~proto ~sites ~votes:(Array.make sites true) ()
      in
      assert (o.agreement && o.all_decided);
      Printf.printf "  %-10s %10d %14d %12d\n"
        (Commit_protocol.label proto ~sites)
        o.messages o.forced_writes o.lazy_writes)
    protos;
  Printf.printf
    "\n  Reading the table: presumed commit (PrC) drops the ack round\n\
    \  (fewer messages) and the participants' forced commit records;\n\
    \  3PC and quorum commit pay an extra round and extra forces for\n\
    \  their pre-commit phase; Paxos Commit keeps 2PC's forces but adds\n\
    \  the acceptors' message fan-out.\n\n";

  Printf.printf
    "Part 2: coordinator crashes mid-protocol, never recovers (30 crash \
     points x 10 schedules each)\n\n";
  Printf.printf "  %-10s %12s %12s %12s\n" "protocol" "blocked runs"
    "undecided" "agreement";
  List.iter
    (fun proto ->
      let blocked = ref 0 and undecided = ref 0 and agree = ref 0 in
      let runs = ref 0 in
      for k = 1 to 30 do
        for seed = 1 to 10 do
          incr runs;
          let o =
            Sandbox.run ~seed ~crashes:[ (0, k) ] ~max_steps:1500 ~proto
              ~sites ~votes:(Array.make sites true) ()
          in
          if o.blocked then incr blocked;
          if not o.all_decided then incr undecided;
          if o.agreement then incr agree
        done
      done;
      Printf.printf "  %-10s %11d%% %11d%% %11d%%\n"
        (Commit_protocol.label proto ~sites)
        (100 * !blocked / !runs)
        (100 * !undecided / !runs)
        (100 * !agree / !runs))
    protos;
  Printf.printf
    "\n  2PC participants caught in the uncertainty window stay blocked\n\
    \  until the coordinator returns; 3PC, quorum commit and Paxos\n\
    \  Commit elect a leader and terminate.  Agreement is never violated\n\
    \  by any protocol, at any crash point.\n"
