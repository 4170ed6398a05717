(* Command-line driver for the reconstructed evaluation: run any table or
   figure of the experiment suite individually, or all of them. *)

open Cmdliner
module Experiment = Rt_core.Experiment

let print_spec (spec : Experiment.spec) =
  Printf.printf "== %s: %s ==\n\n" spec.id spec.title;
  (* rt_lint: allow no-wall-clock -- host-side progress report, outside any simulation *)
  let t0 = Unix.gettimeofday () in
  let table = spec.table () in
  Rt_metrics.Table.print table;
  (* rt_lint: allow no-wall-clock -- host-side progress report, outside any simulation *)
  Printf.printf "\n(generated in %.1fs)\n\n%!" (Unix.gettimeofday () -. t0)

let run_ids ids =
  match ids with
  | [] ->
      List.iter print_spec Experiment.all;
      `Ok ()
  | ids -> (
      let missing =
        List.filter (fun id -> Experiment.find id = None) ids
      in
      match missing with
      | [] ->
          List.iter
            (fun id ->
              match Experiment.find id with
              | Some spec -> print_spec spec
              | None -> assert false)
            ids;
          `Ok ()
      | m ->
          `Error
            (false, Printf.sprintf "unknown experiment id(s): %s"
                      (String.concat ", " m)))

let list_experiments () =
  List.iter
    (fun (s : Experiment.spec) -> Printf.printf "%-4s %s\n" s.id s.title)
    Experiment.all;
  `Ok ()

let ids_arg =
  let doc =
    "Experiment identifiers (T1..T6, F1..F8, A1..A5, S1..S2, \
     case-insensitive).  With no ids, every experiment runs in order."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let list_flag =
  let doc = "List available experiments and exit." in
  Arg.(value & flag & info [ "l"; "list" ] ~doc)

let main list_it ids = if list_it then list_experiments () else run_ids ids

let cmd =
  let doc =
    "Regenerate the tables and figures of the replicated-transactions \
     evaluation"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Each experiment runs the corresponding simulation (or closed-form \
         analysis) with fixed seeds and prints the table the paper-style \
         evaluation reports.  See DESIGN.md for the experiment index and \
         EXPERIMENTS.md for expected shapes.";
    ]
  in
  Cmd.v
    (Cmd.info "experiments" ~version:"1.0" ~doc ~man)
    Term.(ret (const main $ list_flag $ ids_arg))

let () = exit (Cmd.eval cmd)
