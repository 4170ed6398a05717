type node_id = int

type t = {
  component : int array;
  (* rt_lint: allow fingerprint-coverage -- fault-injection topology set by the harness, constant along every explored branch *)
  mutable next_component : int;
  (* Directed severed edges (src, dst): src's messages to dst are lost
     even inside a component.  Symmetric partitions stay in the component
     array; this dense matrix only carries the asymmetric residue.
     [reachable] runs on every send AND delivery, so the check is two
     array indexes, no tuple hashing. *)
  severed : bool array array;
  (* rt_lint: allow fingerprint-coverage -- derived tally of true cells in
     [severed]; fault-injection topology set by the harness, constant
     along every explored branch *)
  mutable severed_count : int;
}

let create ~nodes =
  if nodes <= 0 then invalid_arg "Partition.create: nodes must be positive";
  {
    component = Array.make nodes 0;
    next_component = 1;
    severed = Array.init nodes (fun _ -> Array.make nodes false);
    severed_count = 0;
  }

let nodes t = Array.length t.component

let check_node t n =
  if n < 0 || n >= Array.length t.component then
    invalid_arg (Printf.sprintf "Partition: node %d out of range" n)

let split t groups =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun group ->
      let c = t.next_component in
      t.next_component <- t.next_component + 1;
      List.iter
        (fun n ->
          check_node t n;
          if Hashtbl.mem seen n then
            invalid_arg (Printf.sprintf "Partition.split: node %d listed twice" n);
          Hashtbl.add seen n ();
          t.component.(n) <- c)
        group)
    groups

let isolate t n =
  check_node t n;
  t.component.(n) <- t.next_component;
  t.next_component <- t.next_component + 1

let sever t ~src ~dst =
  check_node t src;
  check_node t dst;
  if src <> dst && not t.severed.(src).(dst) then begin
    t.severed.(src).(dst) <- true;
    t.severed_count <- t.severed_count + 1
  end

let restore t ~src ~dst =
  check_node t src;
  check_node t dst;
  if t.severed.(src).(dst) then begin
    t.severed.(src).(dst) <- false;
    t.severed_count <- t.severed_count - 1
  end

let heal t =
  Array.fill t.component 0 (Array.length t.component) 0;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) false) t.severed;
  t.severed_count <- 0

let reachable t ~src ~dst =
  check_node t src;
  check_node t dst;
  t.component.(src) = t.component.(dst) && not t.severed.(src).(dst)

let connected t a b = reachable t ~src:a ~dst:b && reachable t ~src:b ~dst:a

let is_split t =
  let c0 = t.component.(0) in
  Array.exists (fun c -> c <> c0) t.component || t.severed_count > 0
