type site_id = int

let pp_site fmt s = Format.fprintf fmt "S%d" s

module Txn_id = struct
  type t = { origin : site_id; seq : int; start_ts : Rt_sim.Time.t }

  let make ~origin ~seq ~start_ts = { origin; seq; start_ts }

  let compare a b =
    let c = Rt_sim.Time.compare a.start_ts b.start_ts in
    if c <> 0 then c
    else
      let c = Int.compare a.origin b.origin in
      if c <> 0 then c else Int.compare a.seq b.seq

  let equal a b = compare a b = 0
  let older a b = compare a b < 0
  (* A three-field record has the block layout of the tuple
     [(origin, seq, start_ts)], so this is that tuple's hash without
     building the tuple. *)
  let hash (t : t) = Hashtbl.hash t

  let pp fmt t =
    Format.fprintf fmt "T%d.%d@@%a" t.origin t.seq Rt_sim.Time.pp t.start_ts

  let to_string t = Format.asprintf "%a" pp t
end

module Txn_map = Hashtbl.Make (Txn_id)
