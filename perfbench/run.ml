(* The benchmark's entry point.

     run.exe [--workload NAME] [--seed N] [--seconds S] [--reps R]
             [--trace [0|1]] [--trace-out DIR] [--smoke]

   One single-threaded process measures the selected workloads (all by
   default) and the explorer.  At [--seconds 12] a workload measures its
   [seeds] derived seeds of [--seed], one repetition each, and the
   explorer closes its scenario [explorer_closures] times; other values
   of [--seconds] scale both counts ([--reps R] sets them).  A traced run
   measures half as many, each twice, untraced and traced.  The counts
   are fixed before the run starts, so the measured inputs, and every
   virtual metric, depend on the arguments alone.

   A discarded warm-up round runs derived seed 0 of every workload.
   The measured rounds are as many as the largest count; each subject's
   repetitions are spread evenly over them, at most one a round, so
   that the explorer's few closures sample the whole run.  Every
   repetition starts from a compacted heap.  Virtual metrics must be byte-identical between the
   warm-up and the measured repetition of seed 0, between traced and
   untraced repetitions of a seed, and across closures.

   Every metric prints as "workload metric value unit"; the last line is
   one JSON object with the end-to-end metrics, or with [--trace 1] the
   per-layer ones.  A failed check prints on stderr, makes the result
   incorrect and the exit code 1. *)

type opts = {
  workloads : Workload.t list;
  seed : int;
  seconds : float;
  reps : int option;
  trace : bool;
  trace_out : string option;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME] [--seed N] [--seconds S] [--reps R] \
     [--trace [0|1]] [--trace-out DIR] [--smoke]";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)
    );
  exit 2

let parse argv =
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: name :: rest -> (
        match Workload.find name with
        | Some w -> go { o with workloads = [ w ] } rest
        | None -> usage ())
    | "--seed" :: n :: rest -> go { o with seed = int_arg n } rest
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s -> go { o with seconds = s } rest
        | None -> usage ())
    | "--reps" :: n :: rest -> go { o with reps = Some (max 1 (int_arg n)) } rest
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: "1" :: rest | "--trace" :: rest -> go { o with trace = true } rest
    | "--trace-out" :: dir :: rest -> go { o with trace_out = Some dir } rest
    | "--smoke" :: rest -> go { o with smoke = true; reps = Some 1 } rest
    | _ -> usage ()
  in
  go
    { workloads = Workload.all; seed = 97; seconds = Workload.base_seconds;
      reps = None; trace = false; trace_out = None; smoke = false }
    (List.tl (Array.to_list argv))

(* How many repetitions a subject that measures [n] at
   [Workload.base_seconds] gets. *)
let count o n =
  match o.reps with
  | Some r -> r
  | None ->
      let scale = o.seconds /. Workload.base_seconds in
      let n = max 1 (Float.to_int (Float.round (float_of_int n *. scale))) in
      if o.trace then (n + 1) / 2 else n

(* One measured subject, a workload or the explorer, and everything it
   accumulates over the run. *)
type acc = {
  name : string;
  run : Probe.t option -> int -> Workload.rep;  (* repetition [k] *)
  input : int -> int;  (* the seed repetition [k] runs *)
  count : int;
  signatures : (int, string) Hashtbl.t;  (* by input *)
  mutable plain : Workload.rep list;  (* measured, untraced *)
  mutable traced : Workload.rep list;
  mutable failures : string list;
  mutable attempted : int;
}

let subject name ~count ~input run =
  { name; run; input; count; signatures = Hashtbl.create 16; plain = [];
    traced = []; failures = []; attempted = 0 }

let workload o (w : Workload.t) =
  let input k = o.seed + (k * 1_000_003) in
  subject w.name ~count:(count o w.seeds) ~input
    (fun probe k -> Workload.run ?probe w ~seed:(input k) ~smoke:o.smoke)

(* The explorer's systems carry their own fixed seed. *)
let explorer o =
  subject "explore"
    ~count:(count o Workload.explorer_closures)
    ~input:(fun _ -> 0)
    (fun probe _ -> Workload.explore ?probe ~smoke:o.smoke ())

(* The traced repetition's spans, written as soon as it ends so that no
   later repetition runs with them on the heap. *)
let write_spans dir name p =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (name ^ ".jsonl")) in
  Probe.write_spans p ~workload:name oc;
  close_out oc

let repetition o acc k ~measured ~traced =
  let probe =
    if traced then Some (Probe.create ~keep_spans:(Option.is_some o.trace_out))
    else None
  in
  let rep = acc.run probe k in
  let input = acc.input k in
  (match Hashtbl.find_opt acc.signatures input with
  | None -> Hashtbl.replace acc.signatures input rep.signature
  | Some s ->
      if not (String.equal s rep.signature) then
        acc.failures <-
          acc.failures
          @ [ Printf.sprintf "virtual metrics differ between repetitions of seed %d"
                input ]);
  acc.failures <- acc.failures @ rep.violations;
  Option.iter (fun p -> Option.iter (fun d -> write_spans d acc.name p) o.trace_out) probe;
  if measured then begin
    acc.attempted <- acc.attempted + rep.work;
    if traced then acc.traced <- rep :: acc.traced else acc.plain <- rep :: acc.plain
  end

(* Every metric [select] gives, summarized over the repetitions as its
   [m_agg] says. *)
let summarize reps select =
  let value name rep =
    List.find_opt (fun (m : Workload.metric) -> String.equal m.m_name name)
      (select rep)
    |> Option.map (fun (m : Workload.metric) -> m.m_value)
  in
  match List.find_opt (fun r -> not (List.is_empty (select r))) reps with
  | None -> []
  | Some first ->
      List.map
        (fun (m : Workload.metric) ->
          let vs = List.filter_map (value m.m_name) reps in
          let v =
            match m.m_agg with
            | Mean -> List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs)
            | Median -> Host.median vs
          in
          { m with m_value = v })
        (select first)

let overhead ~plain ~traced =
  let host ms =
    List.find_opt
      (fun (m : Workload.metric) -> String.equal m.m_name "host_us_per_commit")
      ms
  in
  match (host plain, host traced) with
  | Some p, Some t ->
      [ Workload.metric "trace.overhead" "ratio" ((t.m_value /. p.m_value) -. 1.) ]
  | _ -> []

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let o = parse Sys.argv in
  let xacc = explorer o in
  let waccs = List.map (workload o) o.workloads in
  let accs = waccs @ [ xacc ] in
  if not o.smoke then
    List.iter (fun acc -> repetition o acc 0 ~measured:false ~traced:false) waccs;
  let rounds = List.fold_left (fun n acc -> max n acc.count) 0 accs in
  for r = 0 to rounds - 1 do
    List.iter
      (fun acc ->
        (* Repetition [k] runs in round [k * rounds / count], so that a
           subject's repetitions spread over the whole run. *)
        let k = ((r * acc.count) + rounds - 1) / rounds in
        if k < acc.count && k * rounds / acc.count = r then begin
          repetition o acc k ~measured:true ~traced:false;
          if o.trace then repetition o acc k ~measured:true ~traced:true
        end)
      accs
  done;
  let x_e2e = summarize xacc.plain (fun r -> r.e2e) in
  let x_layers = summarize xacc.traced (fun r -> r.layers) in
  let reported =
    List.map
      (fun acc ->
        let e2e = summarize acc.plain (fun r -> r.e2e) in
        let layers =
          if not o.trace then []
          else
            summarize acc.traced (fun r -> r.layers)
            @ overhead ~plain:e2e ~traced:(summarize acc.traced (fun r -> r.e2e))
            @ x_layers
            @ [ Workload.metric ~agg:Median "host.reference_ms" "ms"
                  (Host.median !Host.reference_samples *. 1e3) ]
        in
        let e2e = e2e @ x_e2e in
        List.iter
          (fun (m : Workload.metric) ->
            Printf.printf "%s %s %s %s\n" acc.name m.m_name
              (json_number m.m_value) m.m_unit)
          (e2e @ layers);
        (acc.name, if o.trace then layers else e2e))
      waccs
  in
  List.iter
    (fun acc ->
      List.iter (fun f -> Printf.eprintf "%s FAILED %s\n" acc.name f) acc.failures)
    accs;
  let failed = List.fold_left (fun n acc -> n + List.length acc.failures) 0 accs in
  let attempted = List.fold_left (fun n acc -> n + acc.attempted) 0 accs in
  let single = List.length waccs = 1 in
  let metrics =
    List.concat_map
      (fun (name, ms) ->
        List.map
          (fun (m : Workload.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}"
              (if single then m.m_name else name ^ "/" ^ m.m_name)
              (json_number m.m_value) m.m_unit)
          ms)
      reported
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " metrics);
  exit (if failed = 0 then 0 else 1)
