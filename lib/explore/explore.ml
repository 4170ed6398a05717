(* Bounded exhaustive schedule exploration.

   The engine's state lives in mutable closures, so executions cannot be
   snapshotted and restored.  Exploration is therefore replay-based: every
   execution starts from a freshly built system and follows a recorded
   *decision trail*; backtracking picks the deepest decision with an
   unexplored alternative, truncates the trail there, and re-runs.  The
   engine is deterministic given a trail (fixed seed, labelled events), so
   replays are exact.

   A *decision* is either the choice of which pending event to fire next
   (message delivery or timer expiry) or a binary crash/continue choice at
   a crash-point announcement.  Between decisions, purely local events
   (label [Internal], plus deliveries the harness classifies as eager,
   e.g. heartbeats) are drained in deterministic order: a chosen event and
   the local cascade it triggers form one atomic macro step.  This is a
   deliberate coarsening — the real engine could interleave a concurrent
   delivery between a step and its zero-delay local continuation — traded
   for a tractable branching factor.

   Two reductions prune the tree:

   - {b State dedup}: at every decision point the harness digest of the
     global state is looked up in a cache.  The cache stores, per digest,
     the sleep sets under which the state was already expanded; the
     current node is pruned when some recorded sleep set is a subset of
     the current one (fewer sleeping transitions = more behaviours were
     explored from the recorded visit).  Digests are canonical — sorted
     renderings of every hash table, no clocks, no sequence numbers — so
     two paths reaching the same abstract state collide.

   - {b Sleep sets} (the classical partial-order reduction): after
     exploring alternative [a] at a node, [a] is added to the sleep set
     of the later siblings' subtrees and stays asleep until a dependent
     step fires.  Two steps are independent when their site scopes are
     disjoint; the scope of a macro step is the union of the chosen
     event's scope and the scopes of the internals it drained (scope -1
     is global and conflicts with everything).  Sleeping transitions are
     identified by canonical keys (label + payload + FIFO occurrence
     index), not engine sequence numbers, so they survive replay and can
     be compared across paths by the dedup cache.

   Timers are budgeted per (site, name) per path: exploration fires each
   at most [timer_budget] times, leaving the rest to the deterministic
   drain that precedes the leaf audit.  The drain runs the residue in
   timestamp order — exact for the explored phase, a closure heuristic
   beyond it. *)

open Rt_sim
module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* --- the system under exploration ------------------------------------ *)

type delivery_class = Eager | Choice of string

type sys = {
  ys_engine : Engine.t;
  ys_start : unit -> unit;
  ys_digest : unit -> string;
  ys_delivery_class : seq:int -> delivery_class;
  ys_crash_ok : site:int -> point:string -> bool;
  ys_crash : site:int -> unit;
  ys_drain : unit -> unit;
  ys_audit : unit -> (string * string) list;
}

type opts = {
  op_sleep : bool;
  op_dedup : bool;
  op_timer_total : int;
  op_timer_class : site:int -> name:string -> [ `Choice | `Pending | `Eager ];
  op_crash_budget : int;
  op_max_executions : int;
}

let default_opts =
  {
    op_sleep = true;
    op_dedup = true;
    op_timer_total = max_int;
    op_timer_class = (fun ~site:_ ~name:_ -> `Choice);
    op_crash_budget = 0;
    op_max_executions = 200_000;
  }

(* Explorable fires per (site, timer name) per path. *)
let timer_budget = 1

(* Decision-depth safety net: a longer path is cut and counted as
   truncated. *)
let max_depth = 300

(* --- decision-tree nodes ---------------------------------------------- *)

type alt = {
  a_seq : int;
  a_key : string;
  a_scope : int list;
  a_timer : (int * string) option;  (* (site, name) for timer budget *)
}

type node = {
  n_kind : [ `Event | `Crash ];
  n_alts : alt array;
  n_sleep : int list SMap.t;  (* sleep set when the node was first entered *)
  mutable n_explored : int list;
  mutable n_chosen : int;
}

type stats = {
  mutable st_executions : int;
  mutable st_transitions : int;
  mutable st_states : int;
  mutable st_dedup_hits : int;
  mutable st_sleep_prunes : int;
  mutable st_leaves : int;
  mutable st_max_depth : int;
  mutable st_truncated : int;
}

type leaf_report = {
  lf_schedule : int list;
  lf_violations : (string * string) list;
}

type result = {
  r_stats : stats;
  r_complete : bool;
  r_violating : leaf_report list;
}

exception Divergence of string

(* --- per-run state ----------------------------------------------------- *)

type mode =
  | Explore of node array  (* forced prefix from the DFS stack *)
  | Follow of int array  (* forced indices; beyond them, always alternative 0 *)

(* One decision taken, kept as data; only [follow] renders it. *)
type step =
  | Fired of { key : string; alt : int; alts : int }
  | Crashed of { site : int; point : string }

type rstate = {
  rs_sys : sys;
  rs_opts : opts;
  rs_mode : mode;
  mutable rs_pos : int;
  mutable rs_new : node list;  (* fresh nodes, deepest first *)
  mutable rs_sched : int list;  (* chosen indices, deepest first *)
  mutable rs_trace : step list;  (* deepest first *)
  mutable rs_front : (int * Time.t * Engine.label) list;
      (* the frontier as the last [drain_eager] left it: no eager event *)
  mutable rs_sleep : int list SMap.t;
  mutable rs_crashes : int;
  rs_timer_counts : (string, int) Hashtbl.t;
  mutable rs_exploring : bool;
}

let indep sc1 sc2 =
  (not (List.mem (-1) sc1))
  && (not (List.mem (-1) sc2))
  && List.for_all (fun s -> not (List.mem s sc2)) sc1

(* Fire every pending eager event — internals, harness-classified eager
   deliveries, and timers classed [`Eager] (prompt completions such as
   the WAL device) — in frontier order; returns the union of their
   scopes.  The final frontier is kept in [rs_front] for [eligible] and
   [state_digest], which run before the engine moves again. *)
let drain_eager st =
  let scope = ref [] in
  let rec loop () =
    let front = Engine.frontier st.rs_sys.ys_engine in
    let pick =
      List.find_opt
        (fun (seq, _, lbl) ->
          match lbl with
          | Engine.Internal _ -> true
          | Engine.Delivery _ -> (
              match st.rs_sys.ys_delivery_class ~seq with
              | Eager -> true
              | Choice _ -> false)
          | Engine.Timer { site; name } ->
              st.rs_opts.op_timer_class ~site ~name = `Eager
          | Engine.Recurring _ -> false)
        front
    in
    match pick with
    | None ->
        st.rs_front <- front;
        !scope
    | Some (seq, _, lbl) ->
        (match lbl with
        | Engine.Internal s -> scope := s :: !scope
        | Engine.Delivery { dst; _ } -> scope := dst :: !scope
        | Engine.Timer { site; _ } -> scope := site :: !scope
        | _ -> ());
        ignore (Engine.fire st.rs_sys.ys_engine seq);
        loop ()
  in
  loop ()

let timer_key ~site ~name = "t" ^ string_of_int site ^ ":" ^ name

(* The digest of a decision point must determine the whole remaining
   subtree.  The harness digest covers the cluster state and in-flight
   messages; pending timer events and the per-path fire budgets already
   consumed shape the frontier just as much (a no-op timer fire changes
   nothing in the cluster but removes a choice), so they are folded in
   here.  Without them every stutter step collides with its parent and
   quiescent leaves become unreachable. *)
let state_digest st =
  let b = Buffer.create 512 in
  Buffer.add_string b (st.rs_sys.ys_digest ());
  st.rs_front
  |> List.filter_map (fun (_, _, lbl) ->
         match lbl with
         | Engine.Timer { site; name } -> Some (timer_key ~site ~name)
         | _ -> None)
  |> List.sort String.compare
  |> List.iter (fun k ->
         Buffer.add_string b k;
         Buffer.add_char b ';');
  Buffer.add_char b '|';
  Det.iter_sorted ~cmp:String.compare
    (fun k n -> Printf.bprintf b "%s=%d;" k n)
    st.rs_timer_counts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pending events that are up for explicit choice, in frontier order.
   Canonical keys get a per-base occurrence suffix: identical messages on
   one FIFO link keep their relative sequence order along every path that
   leaves them pending, so the k-th occurrence is structurally the same
   event across sibling branches. *)
let eligible st =
  let occs = Hashtbl.create 8 in
  let key base =
    let n = try Hashtbl.find occs base with Not_found -> 0 in
    Hashtbl.replace occs base (n + 1);
    String.concat "" [ base; "#"; string_of_int n ]
  in
  let total_fired =
    (* rt_lint: allow deterministic-iteration -- commutative integer sum *)
    Hashtbl.fold (fun _ n acc -> n + acc) st.rs_timer_counts 0
  in
  List.filter_map
    (fun (seq, _, lbl) ->
      match lbl with
      | Engine.Internal _ | Engine.Recurring _ -> None
      | Engine.Timer { site; name } ->
          let base = timer_key ~site ~name in
          let fired =
            try Hashtbl.find st.rs_timer_counts base with Not_found -> 0
          in
          if
            fired >= timer_budget
            || total_fired >= st.rs_opts.op_timer_total
            || st.rs_opts.op_timer_class ~site ~name <> `Choice
          then None
          else
            Some
              {
                a_seq = seq;
                a_key = key base;
                a_scope = [ site ];
                a_timer = Some (site, name);
              }
      | Engine.Delivery { src; dst } -> (
          match st.rs_sys.ys_delivery_class ~seq with
          | Eager -> None
          | Choice desc ->
              let base =
                String.concat ""
                  [ "d"; string_of_int src; ">"; string_of_int dst; ":"; desc ]
              in
              Some
                {
                  a_seq = seq;
                  a_key = key base;
                  a_scope = [ dst ];
                  a_timer = None;
                }))
    st.rs_front

let first_unexplored ~sleep_on nd =
  let n = Array.length nd.n_alts in
  let rec go i =
    if i >= n then None
    else if List.mem i nd.n_explored then go (i + 1)
    else if
      nd.n_kind = `Event && sleep_on && SMap.mem nd.n_alts.(i).a_key nd.n_sleep
    then go (i + 1)
    else Some i
  in
  go 0

(* Record a decision: forced while inside the trail prefix, fresh beyond
   it.  Returns the chosen alternative index. *)
let decide st ~kind ~(alts : alt array) =
  let idx = st.rs_pos in
  st.rs_pos <- idx + 1;
  let forced_len =
    match st.rs_mode with
    | Explore stack -> Array.length stack
    | Follow choices -> Array.length choices
  in
  let chosen =
    if idx < forced_len then
      match st.rs_mode with
      | Explore stack ->
          let nd = stack.(idx) in
          if nd.n_kind <> kind || Array.length nd.n_alts <> Array.length alts
          then
            raise
              (Divergence
                 (Printf.sprintf "decision %d: expected %d alternatives, got %d"
                    idx
                    (Array.length nd.n_alts)
                    (Array.length alts)));
          (* Thread the child sleep set from the stack's recorded data:
             explored siblings go to sleep for this subtree. *)
          nd.n_chosen
      | Follow choices ->
          let c = choices.(idx) in
          if c < 0 || c >= Array.length alts then
            raise
              (Divergence
                 (Printf.sprintf "decision %d: index %d out of %d [%s]" idx c
                    (Array.length alts)
                    (String.concat " "
                       (Array.to_list
                          (Array.map (fun a -> a.a_key) alts)))))
          else c
    else
      match st.rs_mode with
      | Follow _ -> 0
      | Explore _ ->
          let nd =
            {
              n_kind = kind;
              n_alts = alts;
              n_sleep = st.rs_sleep;
              n_explored = [];
              n_chosen = 0;
            }
          in
          (match first_unexplored ~sleep_on:st.rs_opts.op_sleep nd with
          | Some c -> nd.n_chosen <- c
          | None -> assert false (* caller checked non-sleeping exists *));
          st.rs_new <- nd :: st.rs_new;
          nd.n_chosen
  in
  st.rs_sched <- chosen :: st.rs_sched;
  chosen

(* Explored-sibling alternatives of the node governing decision [idx]
   (empty beyond the forced prefix: fresh nodes have no explored
   siblings yet). *)
let explored_siblings st idx =
  match st.rs_mode with
  | Follow _ -> []
  | Explore stack ->
      if idx < Array.length stack then
        let nd = stack.(idx) in
        List.map (fun i -> nd.n_alts.(i)) nd.n_explored
      else []

let update_sleep st ~siblings ~step_scope =
  if st.rs_opts.op_sleep then begin
    let base =
      List.fold_left
        (fun m (a : alt) -> SMap.add a.a_key a.a_scope m)
        st.rs_sleep siblings
    in
    st.rs_sleep <- SMap.filter (fun _ sc -> indep sc step_scope) base
  end

let on_crash_point st ~site ~point =
  if
    st.rs_exploring
    && st.rs_crashes < st.rs_opts.op_crash_budget
    && st.rs_sys.ys_crash_ok ~site ~point
  then begin
    let alts =
      [|
        {
          a_seq = -1;
          a_key = "stay:" ^ string_of_int site ^ ":" ^ point;
          a_scope = [];
          a_timer = None;
        };
        {
          a_seq = -1;
          a_key = "crash:" ^ string_of_int site ^ ":" ^ point;
          a_scope = [ site ];
          a_timer = None;
        };
      |]
    in
    let c = decide st ~kind:`Crash ~alts in
    if c = 1 then begin
      st.rs_crashes <- st.rs_crashes + 1;
      st.rs_trace <- Crashed { site; point } :: st.rs_trace;
      st.rs_sys.ys_crash ~site
    end
  end

type leaf =
  | Quiescent
  | Pruned_dedup
  | Pruned_sleep
  | Truncated

(* One full execution.  [cache] maps digests to the sleep sets under
   which the state was already expanded (ignored in Follow mode). *)
let run_once ~cache ~stats ~opts ~mode sys =
  let st =
    {
      rs_sys = sys;
      rs_opts = opts;
      rs_mode = mode;
      rs_pos = 0;
      rs_new = [];
      rs_sched = [];
      rs_trace = [];
      rs_front = [];
      rs_sleep = SMap.empty;
      rs_crashes = 0;
      rs_timer_counts = Hashtbl.create 16;
      rs_exploring = false;
    }
  in
  stats.st_executions <- stats.st_executions + 1;
  Engine.set_crash_hook sys.ys_engine
    (Some (fun ~site ~point -> on_crash_point st ~site ~point));
  st.rs_exploring <- true;
  sys.ys_start ();
  ignore (drain_eager st);
  let rec loop () =
    if st.rs_pos >= max_depth then Truncated
    else
      let alts = eligible st in
      if alts = [] then Quiescent
      else begin
        let alts = Array.of_list alts in
        (* Dedup and sleep-blocking apply only to fresh exploration
           nodes; forced replays and Follow runs pass straight through. *)
        let fresh =
          match st.rs_mode with
          | Explore stack -> st.rs_pos >= Array.length stack
          | Follow _ -> false
        in
        let pruned =
          if not fresh then None
          else begin
            let cur_keys =
              SMap.fold (fun k _ s -> SSet.add k s) st.rs_sleep SSet.empty
            in
            let dedup_hit =
              opts.op_dedup
              &&
              let digest = state_digest st in
              match Hashtbl.find_opt cache digest with
              | Some entry ->
                  if List.exists (fun s -> SSet.subset s cur_keys) !entry
                  then true
                  else begin
                    entry :=
                      cur_keys
                      :: List.filter
                           (fun s -> not (SSet.subset cur_keys s))
                           !entry;
                    false
                  end
              | None ->
                  Hashtbl.replace cache digest (ref [ cur_keys ]);
                  stats.st_states <- stats.st_states + 1;
                  false
            in
            if dedup_hit then begin
              stats.st_dedup_hits <- stats.st_dedup_hits + 1;
              Some Pruned_dedup
            end
            else if
              opts.op_sleep
              && Array.for_all (fun a -> SSet.mem a.a_key cur_keys) alts
            then begin
              stats.st_sleep_prunes <- stats.st_sleep_prunes + 1;
              Some Pruned_sleep
            end
            else None
          end
        in
        match pruned with
        | Some p -> p
        | None ->
            let idx = st.rs_pos in
            let c = decide st ~kind:`Event ~alts in
            let chosen = alts.(c) in
            st.rs_trace <-
              Fired { key = chosen.a_key; alt = c; alts = Array.length alts }
              :: st.rs_trace;
            stats.st_transitions <- stats.st_transitions + 1;
            (* Count the timer fire before executing it so eligibility
               stays consistent if the thunk schedules a same-name timer. *)
            (match chosen.a_timer with
            | Some (site, name) ->
                let bk = timer_key ~site ~name in
                let n =
                  try Hashtbl.find st.rs_timer_counts bk with Not_found -> 0
                in
                Hashtbl.replace st.rs_timer_counts bk (n + 1)
            | None -> ());
            if not (Engine.fire sys.ys_engine chosen.a_seq) then
              raise (Divergence "chosen event vanished");
            let dscope = drain_eager st in
            update_sleep st
              ~siblings:(explored_siblings st idx)
              ~step_scope:(chosen.a_scope @ dscope);
            loop ()
      end
  in
  let leaf = loop () in
  st.rs_exploring <- false;
  if st.rs_pos > stats.st_max_depth then stats.st_max_depth <- st.rs_pos;
  (st, leaf)

(* --- the DFS controller ------------------------------------------------ *)

let zero_stats () =
  {
    st_executions = 0;
    st_transitions = 0;
    st_states = 0;
    st_dedup_hits = 0;
    st_sleep_prunes = 0;
    st_leaves = 0;
    st_max_depth = 0;
    st_truncated = 0;
  }

(* Audit a quiescent leaf: run the residue (budget-excluded timers,
   recovery events) in timestamp order, then ask the harness for
   violations.  Duplicate leaf states audit once. *)
let audit_leaf ~leaf_seen ~stats st =
  let digest = state_digest st in
  if st.rs_opts.op_dedup && Hashtbl.mem leaf_seen digest then begin
    stats.st_dedup_hits <- stats.st_dedup_hits + 1;
    None
  end
  else begin
    Hashtbl.replace leaf_seen digest ();
    stats.st_leaves <- stats.st_leaves + 1;
    st.rs_sys.ys_drain ();
    match st.rs_sys.ys_audit () with
    | [] -> None
    | vs ->
        Some { lf_schedule = List.rev st.rs_sched; lf_violations = vs }
  end

let explore ?(opts = default_opts) make_sys =
  let cache : (string, SSet.t list ref) Hashtbl.t = Hashtbl.create 4096 in
  let leaf_seen : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let stats = zero_stats () in
  let violating = ref [] in
  let stack : node list ref = ref [] in  (* deepest node first *)
  let complete = ref true in
  let running = ref true in
  while !running do
    if stats.st_executions >= opts.op_max_executions then begin
      complete := false;
      running := false
    end
    else begin
      let forced = Array.of_list (List.rev !stack) in
      let sys = make_sys () in
      let st, leaf = run_once ~cache ~stats ~opts ~mode:(Explore forced) sys in
      stack := st.rs_new @ !stack;
      (match leaf with
      | Quiescent -> (
          match audit_leaf ~leaf_seen ~stats st with
          | Some lr -> violating := lr :: !violating
          | None -> ())
      | Truncated ->
          stats.st_truncated <- stats.st_truncated + 1;
          complete := false
      | Pruned_dedup | Pruned_sleep -> ());
      (* Backtrack: deepest node with an unexplored, non-sleeping
         alternative continues; exhausted nodes pop. *)
      let rec backtrack () =
        match !stack with
        | [] -> running := false
        | nd :: rest -> (
            nd.n_explored <- nd.n_chosen :: nd.n_explored;
            match first_unexplored ~sleep_on:opts.op_sleep nd with
            | Some c -> nd.n_chosen <- c
            | None ->
                stack := rest;
                backtrack ())
      in
      backtrack ()
    end
  done;
  {
    r_stats = stats;
    r_complete = !complete;
    r_violating = List.rev !violating;
  }

(* --- replay ------------------------------------------------------------ *)

type replay_out = {
  rp_trace : string list;
  rp_violations : (string * string) list;
  rp_leaf : string;  (* "quiescent" | "truncated" *)
  rp_state : string;  (* raw harness digest text at the drained leaf *)
}

(* Deterministically re-execute a schedule: forced indices first, then
   always alternative 0 (no sleep filtering, no dedup) to quiescence,
   drain, audit.  This is the exchange format for counterexamples: the
   int list fully determines the run. *)
let follow ?(opts = default_opts) make_sys (choices : int list) =
  let opts = { opts with op_sleep = false; op_dedup = false } in
  let cache = Hashtbl.create 1 in
  let stats = zero_stats () in
  let sys = make_sys () in
  let st, leaf =
    run_once ~cache ~stats ~opts ~mode:(Follow (Array.of_list choices)) sys
  in
  let violations =
    match leaf with
    | Quiescent ->
        st.rs_sys.ys_drain ();
        st.rs_sys.ys_audit ()
    | _ -> []
  in
  let render = function
    | Fired { key; alt; alts } ->
        Printf.sprintf "fire %s (alt %d/%d)" key alt alts
    | Crashed { site; point } -> Printf.sprintf "crash site %d at %s" site point
  in
  {
    rp_trace = List.rev_map render st.rs_trace;
    rp_violations = violations;
    rp_leaf = (match leaf with Quiescent -> "quiescent" | _ -> "truncated");
    rp_state = st.rs_sys.ys_digest ();
  }

(* --- counterexample minimization --------------------------------------- *)

(* Greedy shrink under replay semantics: shortest violating prefix first
   (the suffix re-grows as default-0 choices), then lower each index as
   far as it will go.  Every candidate costs one full re-execution, so
   the probe budget is capped. *)
let max_probes = 300

let minimize ?(opts = default_opts) make_sys schedule =
  let probes = ref 0 in
  let viol cs =
    if !probes >= max_probes then false
    else begin
      incr probes;
      (* A mutated prefix can change downstream arity, making a recorded
         index out of range; such probes are simply non-violating. *)
      match (follow ~opts make_sys cs).rp_violations with
      | [] -> false
      | _ :: _ -> true
      | exception Divergence _ -> false
    end
  in
  if not (viol schedule) then schedule  (* not reproducible: keep as-is *)
  else begin
    let best = ref schedule in
    (let n = List.length schedule in
     try
       for k = 0 to n - 1 do
         let prefix = List.filteri (fun i _ -> i < k) schedule in
         if viol prefix then begin
           best := prefix;
           raise Exit
         end
       done
     with Exit -> ());
    let arr = Array.of_list !best in
    for i = 0 to Array.length arr - 1 do
      let orig = arr.(i) in
      (try
         for v = 0 to orig - 1 do
           arr.(i) <- v;
           if viol (Array.to_list arr) then raise Exit
         done;
         arr.(i) <- orig
       with Exit -> ())
    done;
    (* Drop trailing zeros: replay extends with 0s anyway. *)
    let l = ref (Array.to_list arr) in
    let rec strip xs =
      match List.rev xs with 0 :: r -> strip (List.rev r) | _ -> xs
    in
    l := strip !l;
    if viol !l then !l else Array.to_list arr
  end
