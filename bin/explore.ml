(* Command-line driver for bounded exhaustive schedule exploration: run
   the scenario matrix (all six commit protocols x full/sharded
   placement x conflict and crash variants at N=3), explore each
   scenario once with sleep sets and state dedup, print the per-config
   state counts, and exit 0 when every invariant holds and 1 on any
   violation (124 is a command-line error or an unknown --replay
   scenario) so CI can gate on it.
   Output is byte-identical run to run: the explorer draws no randomness
   and prints no clocks.

     dune exec bin/explore.exe                        # full sweep
     dune exec bin/explore.exe -- --only 2PC-PrA/full # one scenario
     dune exec bin/explore.exe -- --replay 3PC/crash --schedule 4,0,1
*)

open Cmdliner
module Sweep = Rt_explore.Sweep
module Explore = Rt_explore.Explore

let run_sweep only =
  let filter =
    match only with
    | None -> fun _ -> true
    | Some name -> fun (sc : Sweep.scenario) -> sc.sc_name = name
  in
  let fmt = Format.std_formatter in
  let violations = Sweep.run_matrix ~filter fmt in
  Format.pp_print_flush fmt ();
  exit (if violations = 0 then 0 else 1)

let run_replay name schedule =
  match Sweep.find_scenario name with
  | None ->
      Format.eprintf "unknown scenario %S; known scenarios:@." name;
      List.iter
        (fun (sc : Sweep.scenario) -> Format.eprintf "  %s@." sc.sc_name)
        (Sweep.default_matrix ());
      exit 124
  | Some sc ->
      let opts = Sweep.opts_of sc ~sleep:true in
      let out = Explore.follow ~opts (Sweep.make_sys sc) schedule in
      Format.printf "# replay %s [%s]@." name
        (String.concat "," (List.map string_of_int schedule));
      List.iter (fun l -> Format.printf "  %s@." l) out.rp_trace;
      Format.printf "leaf: %s@." out.rp_leaf;
      Format.printf "state at leaf:@.";
      String.split_on_char '\n' out.rp_state
      |> List.iter (fun l -> if l <> "" then Format.printf "  %s@." l);
      if out.rp_violations = [] then begin
        Format.printf "audit: clean@.";
        exit 0
      end
      else begin
        List.iter
          (fun (inv, detail) -> Format.printf "violation %s: %s@." inv detail)
          out.rp_violations;
        exit 1
      end

let schedule_conv =
  let parse s =
    if String.trim s = "" then Ok []
    else
      try
        Ok
          (String.split_on_char ',' s
          |> List.map (fun x -> int_of_string (String.trim x)))
      with _ -> Error (`Msg (Printf.sprintf "bad schedule %S" s))
  in
  let print fmt l =
    Format.fprintf fmt "%s" (String.concat "," (List.map string_of_int l))
  in
  Arg.conv (parse, print)

let only_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"SCENARIO" ~doc:"Run a single scenario by name.")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"SCENARIO"
        ~doc:"Replay a schedule against the named scenario instead of sweeping.")

let schedule_arg =
  Arg.(
    value
    & opt schedule_conv []
    & info [ "schedule" ] ~docv:"N,N,..."
        ~doc:
          "Decision indices for --replay (as printed in a counterexample); \
           decisions beyond the list take alternative 0.")

let main only replay schedule =
  match replay with
  | Some name -> run_replay name schedule
  | None -> run_sweep only

let cmd =
  let exits = Cmd.Exit.info 1 ~doc:"on a failed audit." :: Cmd.Exit.defaults in
  let doc = "bounded exhaustive schedule exploration with DPOR" in
  Cmd.v
    (Cmd.info "explore" ~doc ~exits)
    Term.(const main $ only_arg $ replay_arg $ schedule_arg)

let () = exit (Cmd.eval cmd)
