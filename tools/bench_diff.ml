(* Perf gate: compare the two highest-numbered BENCH_<n>.json snapshots
   in the working directory (or two explicit paths given as arguments)
   and fail on any difference.

   [bench/main.exe --json] reports virtual time only, which is
   deterministic per seed, so a fresh snapshot equals the committed
   baseline byte for byte unless the protocol behaviour changed.  A
   change that moves any probe must commit the new snapshot and explain
   it (exact-match-or-refresh); there is no tolerance to hide a
   regression in.

     dune exec tools/bench_diff.exe                # two newest snapshots
     dune exec tools/bench_diff.exe -- OLD NEW     # explicit files

   Exit codes: 0 = identical, 1 = the snapshots differ (the differing
   lines are printed, "-" old and "+" new), 2 = usage error. *)

let read_lines path =
  try In_channel.with_open_text path In_channel.input_lines
  with Sys_error e ->
    Printf.eprintf "bench_diff: cannot open %s: %s\n" path e;
    exit 2

let snapshot_index name =
  Scanf.sscanf_opt name "BENCH_%d.json%!" (fun n -> n)

let newest_two () =
  let indexed =
    Array.to_list (Sys.readdir ".")
    |> List.filter_map (fun name ->
           match snapshot_index name with
           | Some n -> Some (n, name)
           | None -> None)
    |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
  in
  match indexed with
  | (_, newer) :: (_, older) :: _ -> (older, newer)
  | _ ->
      Printf.eprintf
        "bench_diff: need two BENCH_<n>.json snapshots to compare (run \
         `make bench-json` against a committed baseline)\n";
      exit 2

let () =
  let old_path, new_path =
    match Sys.argv with
    | [| _ |] -> newest_two ()
    | [| _; o; n |] -> (o, n)
    | _ ->
        Printf.eprintf "usage: bench_diff [OLD.json NEW.json]\n";
        exit 2
  in
  let old_lines = read_lines old_path and new_lines = read_lines new_path in
  Printf.printf "perf gate: %s -> %s (exact match)\n" old_path new_path;
  if List.equal String.equal old_lines new_lines then print_endline "identical"
  else begin
    let only_in mark lines others =
      List.iter
        (fun l ->
          if not (List.exists (String.equal l) others) then
            Printf.printf "%s %s\n" mark l)
        lines
    in
    only_in "-" old_lines new_lines;
    only_in "+" new_lines old_lines;
    print_endline
      "snapshots differ: commit the new snapshot and explain the change";
    exit 1
  end
