open Rt_types
module Tid = Ids.Txn_id
module Tmap = Map.Make (Tid)
module Tset = Set.Make (Tid)

let find_cycle edges =
  (* Each node's successors, built once. *)
  let succ =
    List.fold_left
      (fun m (a, b) ->
        if Tid.equal a b then m
        else
          Tmap.update a
            (fun s -> Some (Tset.add b (Option.value s ~default:Tset.empty)))
            m)
      Tmap.empty edges
  in
  let successors node =
    Option.value (Tmap.find_opt node succ) ~default:Tset.empty
  in
  (* DFS with an explicit on-path set; the path lets us slice out the cycle
     when we hit a grey node. *)
  let exception Found of Tid.t list in
  let rec dfs path on_path node visited =
    if Tset.mem node on_path then begin
      (* Slice the cycle out of the path (path is reversed). *)
      let rec take acc = function
        | [] -> acc
        | x :: rest ->
            if Tid.equal x node then x :: acc else take (x :: acc) rest
      in
      raise (Found (take [] path))
    end
    else if Tset.mem node visited then visited
    else
      let path = node :: path and on_path = Tset.add node on_path in
      Tset.add node (Tset.fold (dfs path on_path) (successors node) visited)
  in
  (* A node without successors closes no cycle, so the roots need only
     be the nodes with one. *)
  try
    ignore
      (Tmap.fold (fun node _ visited -> dfs [] Tset.empty node visited) succ
         Tset.empty);
    None
  with Found cycle -> Some cycle

let victim cycle =
  match cycle with
  | [] -> invalid_arg "Wfg.victim: empty cycle"
  | first :: rest ->
      List.fold_left
        (fun a b -> if Tid.compare a b >= 0 then a else b)
        first rest
