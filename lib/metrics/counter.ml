type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 32

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let incr t name = Stdlib.incr (cell t name)

let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0
let set t name v = cell t name := v

let to_assoc t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let names t = List.map fst (to_assoc t)
let reset t = Hashtbl.reset t

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (name, v) -> Format.fprintf fmt "%s = %d@," name v) (to_assoc t);
  Format.fprintf fmt "@]"
