(* Fault scenarios.

   A scenario is a recipe: given the live cluster and the fault window it
   emits a deterministic, time-sorted list of Failure.fault steps, which
   the campaign runner schedules.  Most recipes read only the cluster's
   size; [random_crashes] draws from the cluster's engine. *)

open Rt_sim
open Rt_core
open Rt_core.Failure

type step = Time.t * fault

type t = {
  name : string;
  build : Cluster.t -> duration:Time.t -> step list;
}

let make name build =
  {
    name;
    build =
      (fun cluster ~duration ->
        build ~sites:(Cluster.config cluster).Config.sites ~duration);
  }

let name t = t.name

let steps t cluster ~duration =
  t.build cluster ~duration
  |> List.filter (fun (at, _) -> Time.(at >= zero) && Time.(at < duration))
  |> List.stable_sort (fun (a, _) (b, _) -> Time.compare a b)

(* -- building blocks ------------------------------------------------- *)

let halves sites =
  let mid = sites / 2 in
  (List.init mid Fun.id, List.init (sites - mid) (fun i -> mid + i))

(* Every directed edge from a group to the rest of the cluster. *)
let edges_out ~sites group =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if List.mem dst group then None else Some (src, dst))
        (List.init sites Fun.id))
    group

(* A square wave: emit [on] at k*period and [offs] half a period later,
   for as many whole periods as fit the window.  The last cycle's [offs]
   steps always land inside the window so faults never outlive it. *)
let square ~period ~duration on offs =
  if Time.(period <= zero) then invalid_arg "Scenario: period must be positive";
  let cycles = duration / period in
  List.concat
    (List.init cycles (fun k ->
         let base = k * period in
         List.map (fun f -> (base, f)) on
         @ List.map (fun f -> (Time.add base (period / 2), f)) offs))

(* -- scenarios ------------------------------------------------------- *)

let calm = make "calm" (fun ~sites:_ ~duration:_ -> [])

let lossy ?(drop = 0.05) ?(duplicate = 0.05) () =
  make
    (Printf.sprintf "lossy(drop=%.2f,dup=%.2f)" drop duplicate)
    (fun ~sites:_ ~duration:_ ->
      [ (Time.zero, Lossy { pairs = None; drop; duplicate }) ])

let gray =
  let factor = 8 in
  make
    (Printf.sprintf "gray(x%d)" factor)
    (fun ~sites ~duration:_ ->
      (* Site 0 is slow to everyone, both directions: the gray-failure
         pattern where one box limps instead of dying. *)
      let pairs =
        List.concat_map
          (fun i -> if i = 0 then [] else [ (0, i); (i, 0) ])
          (List.init sites Fun.id)
      in
      [ (Time.zero, Gray { pairs = Some pairs; factor }) ])

let flapping =
  let period = Time.ms 100 in
  make
    (Printf.sprintf "flapping(%dms)" (period / Time.ms 1))
    (fun ~sites ~duration ->
      let left, right = halves sites in
      square ~period ~duration
        [ Partition [ left; right ] ]
        [ Heal_partition ])

let one_way =
  let period = Time.ms 100 in
  make
    (Printf.sprintf "one-way(%dms)" (period / Time.ms 1))
    (fun ~sites ~duration ->
      (* Asymmetric: the left half can hear the right but not the
         reverse — requests arrive, replies vanish. *)
      let left, _ = halves sites in
      let out = edges_out ~sites left in
      square ~period ~duration [ Sever out ] [ Restore out ])

let churn =
  let every = Time.ms 120 and down_for = Time.ms 60 in
  make
    (Printf.sprintf "churn(%dms/%dms)" (every / Time.ms 1)
       (down_for / Time.ms 1))
    (fun ~sites ~duration ->
      (* Round-robin crash/recover, one site down at a time, never the
         whole cluster. *)
      let rounds = duration / every in
      List.concat
        (List.init rounds (fun k ->
             let site = k mod sites in
             let at = k * every in
             [ (at, Crash site); (Time.add at down_for, Recover site) ])))

let coordinator_faults =
  let every = Time.ms 150 and down_for = Time.ms 50 in
  make
    (Printf.sprintf "coordinator(%dms/%dms)" (every / Time.ms 1)
       (down_for / Time.ms 1))
    (fun ~sites ~duration ->
      (* Target site 0 — every fleet parks a client there, so these are
         coordinator-side faults: alternately crash it and cut its
         outbound links (votes reach it, its decisions vanish). *)
      let out = edges_out ~sites [ 0 ] in
      let rounds = duration / every in
      List.concat
        (List.init rounds (fun k ->
             let at = k * every in
             if k mod 2 = 0 then
               [ (at, Crash 0); (Time.add at down_for, Recover 0) ]
             else
               [ (at, Sever out); (Time.add at down_for, Restore out) ])))

let random_crashes ~mttf ~mttr ~partition =
  {
    name =
      Printf.sprintf "random-crashes(%dms/%dms)%s" (mttf / Time.ms 1)
        (mttr / Time.ms 1)
        (if partition then "+split" else "");
    build =
      (fun cluster ~duration ->
        let left, right = halves (Cluster.config cluster).Config.sites in
        Failure.random_crashes cluster ~mttf ~mttr ~until:duration
        @
        if partition then
          [
            (duration / 3, Partition [ left; right ]);
            (2 * duration / 3, Heal_partition);
          ]
        else []);
  }

(* Whether a step list severs reachability (as opposed to degrading
   links).  Protocols that are only safe under crash-stop failures — 3PC
   termination trusts its failure detector — are allowed documented
   divergence in such scenarios (see docs/PROTOCOLS.md). *)
let cuts_reachability steps =
  List.exists
    (function _, (Partition _ | Sever _) -> true | _ -> false)
    steps
