open Rt_types
module Tid = Ids.Txn_id

type access = { txn : Tid.t; version : int }

type t = {
  mutable reads : (string * access) list;  (* key, reader, version read *)
  mutable writes : (string * access) list;  (* key, writer, version made *)
  mutable committed : Tid.t list;
  mutable aborted : Tid.t list;
}

let create () = { reads = []; writes = []; committed = []; aborted = [] }
let read t txn ~key ~version = t.reads <- (key, { txn; version }) :: t.reads
let write t txn ~key ~version = t.writes <- (key, { txn; version }) :: t.writes
let commit t txn = t.committed <- txn :: t.committed
let abort t txn = t.aborted <- txn :: t.aborted
let committed t = List.sort_uniq Tid.compare t.committed

module Tid_set = Set.Make (Tid)

(* Chain edges give the same reachability as the full conflict relation:
   per key, writers ordered by version form a ww chain; a read of version
   v hangs off its writer (wr) and points at the next writer (rw).  This
   keeps the check near-linear instead of quadratic in history size. *)
let conflict_edges t =
  let committed_set = Tid_set.of_list t.committed in
  let live (a : access) = Tid_set.mem a.txn committed_set in
  (* key -> sorted array of committed writes *)
  let writes_by_key : (string, access list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (k, w) ->
      if live w then
        match Hashtbl.find_opt writes_by_key k with
        | Some r -> r := w :: !r
        | None -> Hashtbl.add writes_by_key k (ref [ w ]))
    t.writes;
  let sorted_writes = Hashtbl.create 64 in
  Rt_sim.Det.iter_sorted ~cmp:String.compare
    (fun k r ->
      let arr = Array.of_list !r in
      Array.sort (fun a b -> Int.compare a.version b.version) arr;
      Hashtbl.replace sorted_writes k arr)
    writes_by_key;
  let edges = ref [] in
  let add a b = if not (Tid.equal a b) then edges := (a, b) :: !edges in
  (* ww chain per key. *)
  Rt_sim.Det.iter_sorted ~cmp:String.compare
    (fun _k arr ->
      for i = 0 to Array.length arr - 2 do
        add arr.(i).txn arr.(i + 1).txn
      done)
    sorted_writes;
  (* wr and rw per read: binary-search the key's write array. *)
  let next_write_after arr version =
    (* Smallest index with arr.(i).version > version. *)
    let lo = ref 0 and hi = ref (Array.length arr) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid).version > version then hi := mid else lo := mid + 1
    done;
    !lo
  in
  List.iter
    (fun (k, r) ->
      if live r then
        match Hashtbl.find_opt sorted_writes k with
        | None -> ()
        | Some arr ->
            (* wr: the writer of the version read (if committed/known). *)
            (match
               Array.find_opt (fun w -> w.version = r.version) arr
             with
            | Some w -> add w.txn r.txn
            | None -> ());
            (* rw: the first later writer (reaches the rest via ww). *)
            let i = next_write_after arr r.version in
            if i < Array.length arr then add r.txn arr.(i).txn)
    t.reads;
  let edge_compare (a1, b1) (a2, b2) =
    let c = Tid.compare a1 a2 in
    if c <> 0 then c else Tid.compare b1 b2
  in
  List.sort_uniq edge_compare !edges

let cycle t = Rt_lock.Wfg.find_cycle (conflict_edges t)
let serializable t = cycle t = None
