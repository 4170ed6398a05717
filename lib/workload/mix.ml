type op = Read of string | Write of string * string

let op_key = function Read k -> k | Write (k, _) -> k
let is_read = function Read _ -> true | Write _ -> false

type t = {
  keys : int;
  theta : float;
  ops_per_txn : int;
  read_fraction : float;
  value_size : int;
}

let default =
  { keys = 1000; theta = 0.; ops_per_txn = 4; read_fraction = 0.5;
    value_size = 16 }

let read_only t = { t with read_fraction = 1.0 }
let key_of i = Printf.sprintf "k%06d" i

type gen = { mix : t; zipf : Zipf.t; rng : Rt_sim.Rng.t; mutable counter : int }

let generator mix rng =
  if mix.keys <= 0 || mix.ops_per_txn <= 0 then
    invalid_arg "Mix.generator: bad parameters";
  if mix.read_fraction < 0. || mix.read_fraction > 1. then
    invalid_arg "Mix.generator: read_fraction out of range";
  { mix; zipf = Zipf.create ~n:mix.keys ~theta:mix.theta; rng; counter = 0 }

let fresh_value g =
  g.counter <- g.counter + 1;
  let tag = Printf.sprintf "v%d-" g.counter in
  let pad = max 0 (g.mix.value_size - String.length tag) in
  tag ^ String.make pad 'x'

(* Sample [ops_per_txn] distinct keys. *)
let sample_keys g =
  let seen = Hashtbl.create 8 in
  let keys = ref [] in
  let attempts = ref 0 in
  while Hashtbl.length seen < g.mix.ops_per_txn && !attempts < 100 * g.mix.ops_per_txn
  do
    incr attempts;
    let k = Zipf.sample g.zipf g.rng in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      keys := k :: !keys
    end
  done;
  List.rev !keys

let ops_of_keys g keys =
  List.map
    (fun k ->
      let key = key_of k in
      if Rt_sim.Rng.bernoulli g.rng ~p:g.mix.read_fraction then Read key
      else Write (key, fresh_value g))
    keys

let next_txn g =
  let keys = List.sort_uniq Int.compare (sample_keys g) in
  ops_of_keys g keys

let next_txn_unordered g = ops_of_keys g (sample_keys g)

let populate mix set =
  for i = 0 to mix.keys - 1 do
    set ~key:(key_of i) ~value:(String.make (max 1 mix.value_size) '0')
  done
