open Rt_types
module Tid = Ids.Txn_id

module Edge_set = Set.Make (struct
  type t = Tid.t * Tid.t

  let compare (a1, a2) (b1, b2) =
    let c = Tid.compare a1 b1 in
    if c <> 0 then c else Tid.compare a2 b2
end)

type t = { mutable set : Edge_set.t }

let create () = { set = Edge_set.empty }

let add_edge t a b =
  if not (Tid.equal a b) then t.set <- Edge_set.add (a, b) t.set

let of_edges list =
  let t = create () in
  List.iter (fun (a, b) -> add_edge t a b) list;
  t

let edges t = Edge_set.elements t.set

let dump t =
  Edge_set.elements t.set
  |> List.map (fun (a, b) ->
         Printf.sprintf "%s->%s;" (Tid.to_string a) (Tid.to_string b))
  |> String.concat ""

let successors t node =
  Edge_set.fold
    (fun (a, b) acc -> if Tid.equal a node then b :: acc else acc)
    t.set []
  |> List.sort Tid.compare

let nodes t =
  Edge_set.fold (fun (a, b) acc -> a :: b :: acc) t.set []
  |> List.sort_uniq Tid.compare

let find_cycle t =
  (* DFS with an explicit on-path set; the path lets us slice out the cycle
     when we hit a grey node. *)
  let module Tset = Set.Make (Tid) in
  let visited = ref Tset.empty in
  let exception Found of Tid.t list in
  let rec dfs path on_path node =
    if Tset.mem node on_path then begin
      (* Slice the cycle out of the path (path is reversed). *)
      let rec take acc = function
        | [] -> acc
        | x :: rest ->
            if Tid.equal x node then x :: acc else take (x :: acc) rest
      in
      raise (Found (take [] path))
    end
    else if not (Tset.mem node !visited) then begin
      let path = node :: path and on_path = Tset.add node on_path in
      List.iter (dfs path on_path) (successors t node);
      visited := Tset.add node !visited
    end
  in
  try
    List.iter (fun n -> dfs [] Tset.empty n) (nodes t);
    None
  with Found cycle -> Some cycle

let victim cycle =
  match cycle with
  | [] -> invalid_arg "Wfg.victim: empty cycle"
  | first :: rest ->
      List.fold_left
        (fun a b -> if Tid.compare a b >= 0 then a else b)
        first rest
