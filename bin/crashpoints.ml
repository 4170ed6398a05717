(* Command-line driver for the crash-point sweep: crash every protocol at
   every instrumented point and audit the invariants at quiescence.  It
   exits 0 when the audit is clean and 1 on any violation, so CI can gate
   on it directly; 124 is a command-line error. *)

open Cmdliner
module Sweep = Rt_crash.Crash_sweep

let protocol_names = List.map fst Sweep.default_protocols

let list_points seed protocols ns =
  List.iter
    (fun (name, protocol) ->
      List.iter
        (fun n ->
          let stream = Sweep.discover ~protocol ~n ~seed () in
          let tally = Hashtbl.create 32 in
          List.iter
            (fun (site, point, _cycle) ->
              let k =
                Option.value (Hashtbl.find_opt tally (site, point)) ~default:0
              in
              Hashtbl.replace tally (site, point) (k + 1))
            stream;
          Printf.printf "== %s n=%d ==\n" name n;
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
          |> List.sort (fun ((s1, p1), _) ((s2, p2), _) ->
                 match Int.compare s1 s2 with
                 | 0 -> String.compare p1 p2
                 | c -> c)
          |> List.iter (fun ((site, point), k) ->
                 Printf.printf "  site %d  %-28s x%d\n" site point k))
        ns)
    protocols

let run seed protocols ns list_only =
  let unknown =
    List.filter (fun p -> not (List.mem_assoc p Sweep.default_protocols))
      protocols
  in
  if unknown <> [] then
    `Error
      ( false,
        Printf.sprintf "unknown protocol(s): %s (choose from %s)"
          (String.concat ", " unknown)
          (String.concat ", " protocol_names) )
  else begin
    let protocols =
      match protocols with
      | [] -> Sweep.default_protocols
      | ps ->
          List.filter (fun (name, _) -> List.mem name ps)
            Sweep.default_protocols
    in
    let ns = match ns with [] -> Sweep.default_ns | ns -> ns in
    if list_only then begin
      list_points seed protocols ns;
      `Ok ()
    end
    else begin
      let report = Sweep.sweep ~seed ~protocols ~ns () in
      print_string (Sweep.render report);
      if report.Sweep.rp_violations <> [] then exit 1;
      `Ok ()
    end
  end

let seed_arg =
  let doc = "DES seed; the report is byte-identical for a given seed." in
  Arg.(value & opt int 0 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let protocols_arg =
  let doc =
    Printf.sprintf
      "Protocols to sweep (repeatable; default all of %s)."
      (String.concat ", " protocol_names)
  in
  Arg.(value & opt_all string [] & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)

let ns_arg =
  let doc = "Cluster sizes to sweep (repeatable; default 3 and 5)." in
  Arg.(value & opt_all int [] & info [ "n"; "sites" ] ~docv:"N" ~doc)

let list_arg =
  let doc =
    "Only list the discovered crash points (and how often each fires) \
     instead of running injections."
  in
  Arg.(value & flag & info [ "l"; "list" ] ~doc)

let cmd =
  let exits = Cmd.Exit.info 1 ~doc:"on a failed audit." :: Cmd.Exit.defaults in
  let doc = "Exhaustive crash-recovery fault injection for commit protocols" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "For each protocol and cluster size, a discovery run records every \
         named crash point (forced log writes and protocol-step boundaries) \
         at the coordinator site and one participant site; each occurrence \
         then becomes an injection run that crashes the site exactly there, \
         recovers it, and audits agreement, durability, lock/timer hygiene, \
         and bounded termination at quiescence.  See docs/RECOVERY.md for \
         the crash-point matrix.";
    ]
  in
  Cmd.v
    (Cmd.info "crashpoints" ~version:"1.0" ~doc ~man ~exits)
    Term.(ret (const run $ seed_arg $ protocols_arg $ ns_arg $ list_arg))

let () = exit (Cmd.eval cmd)
