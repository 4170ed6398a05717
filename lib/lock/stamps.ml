open Rt_types
module Tid = Ids.Txn_id

type entry = {
  mutable rts : Tid.t option;  (* newest admitted reader *)
  mutable wts : Tid.t option;  (* newest installed writer *)
  mutable pending : Tid.t list;  (* admitted writers not yet released *)
}

type t = {
  table : (string, entry) Hashtbl.t;
  marks : string list Ids.Txn_map.t;  (* txn -> keys carrying its mark *)
}

let create () =
  { table = Hashtbl.create 256; marks = Ids.Txn_map.create 64 }

(* Stamp order: [None] (nothing yet) precedes every transaction. *)
let before a b =
  match (a, b) with
  | _, None -> false
  | None, Some _ -> true
  | Some x, Some y -> Tid.older x y

let entry_for t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { rts = None; wts = None; pending = [] } in
      Hashtbl.add t.table key e;
      e

let read t ~txn ~key =
  let e = entry_for t key in
  let ts = Some txn in
  if before ts e.wts || List.exists (fun p -> Tid.older p txn) e.pending
  then false
  else begin
    if before e.rts ts then e.rts <- ts;
    true
  end

let write t ~txn ~key =
  let e = entry_for t key in
  let ts = Some txn in
  if before ts e.rts || before ts e.wts then false
  else begin
    if not (List.exists (Tid.equal txn) e.pending) then begin
      e.pending <- txn :: e.pending;
      let keys =
        Option.value ~default:[] (Ids.Txn_map.find_opt t.marks txn)
      in
      Ids.Txn_map.replace t.marks txn (key :: keys)
    end;
    true
  end

let release t ~txn =
  match Ids.Txn_map.find_opt t.marks txn with
  | None -> ()
  | Some keys ->
      Ids.Txn_map.remove t.marks txn;
      List.iter
        (fun key ->
          let e = Hashtbl.find t.table key in
          e.pending <- List.filter (fun p -> not (Tid.equal p txn)) e.pending)
        keys

let install t ~txn ~key =
  let e = entry_for t key in
  let ts = Some txn in
  if before ts e.wts then false
  else begin
    e.wts <- ts;
    true
  end

let dump t =
  let stamp = function None -> "-" | Some txn -> Tid.to_string txn in
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (key, e) ->
         Printf.sprintf "%s{r=%s;w=%s;p=%s};" key (stamp e.rts) (stamp e.wts)
           (String.concat ","
              (List.map Tid.to_string (List.sort Tid.compare e.pending))))
  |> String.concat ""
