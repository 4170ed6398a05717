type shard_snapshot = (string * Kv.item) list

(* A snapshot plus its integrity checksum.  [cs_crc] is computed when the
   snapshot is taken; fault injection flips it to model a checkpoint
   whose sectors went stale or corrupt on disk. *)
type snap = {
  cs_shards : (int * shard_snapshot) list;
      (* Per-shard entry lists, sorted by shard id; entries sorted by key. *)
  cs_lsn : Wal.lsn;
  mutable cs_crc : int;
}

type t = {
  mutable snapshot : snap option;  (* latest *)
  mutable previous : snap option;  (* the one before, kept as fallback *)
  mutable taken : int;
}

let create () = { snapshot = None; previous = None; taken = 0 }

let snap_crc ~shards ~lsn =
  let d = Digest.string (Marshal.to_string (shards, lsn) []) in
  let h = ref 0 in
  String.iter (fun c -> h := (!h * 131) + Char.code c) d;
  !h land max_int

let partition_by_shard ~shard_of entries =
  let by_shard = Hashtbl.create 8 in
  (* Kv.snapshot is key-sorted; preserve that order within each shard. *)
  List.iter
    (fun ((key, _) as e) ->
      let shard = shard_of key in
      let prev = Option.value (Hashtbl.find_opt by_shard shard) ~default:[] in
      Hashtbl.replace by_shard shard (e :: prev))
    entries;
  Hashtbl.fold (fun shard es acc -> (shard, List.rev es) :: acc) by_shard []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let valid s = s.cs_crc = snap_crc ~shards:s.cs_shards ~lsn:s.cs_lsn

let take ?(shard_of = fun _ -> 0) t ~kv ~lsn =
  let shards = partition_by_shard ~shard_of (Kv.snapshot kv) in
  (* Demote the latest snapshot to the fallback slot only if it is
     intact: a corrupt snapshot is worthless as a fallback, and keeping
     the older valid one preserves the invariant that [previous], when
     present, can always be installed. *)
  (match t.snapshot with
  | Some s when valid s -> t.previous <- t.snapshot
  | Some _ | None -> ());
  t.snapshot <-
    Some { cs_shards = shards; cs_lsn = lsn; cs_crc = snap_crc ~shards ~lsn };
  t.taken <- t.taken + 1

let merged shards = List.concat_map snd shards

let latest t =
  Option.map (fun s -> (merged s.cs_shards, s.cs_lsn)) t.snapshot

let corrupt t =
  match t.snapshot with
  | None -> ()
  | Some s -> s.cs_crc <- lnot s.cs_crc

let has_previous t = Option.is_some t.previous
let previous_lsn t = Option.map (fun s -> s.cs_lsn) t.previous

type restored =
  | R_latest of Wal.lsn
  | R_previous of Wal.lsn
  | R_none

let restore_validated t kv =
  match t.snapshot with
  | Some s when valid s ->
      Kv.restore kv (merged s.cs_shards);
      R_latest s.cs_lsn
  | None ->
      Kv.clear kv;
      R_none
  | Some _ -> (
      (* Latest checkpoint fails validation: fall back to the previous
         snapshot, or to full log replay over an empty store. *)
      match t.previous with
      | Some p when valid p ->
          Kv.restore kv (merged p.cs_shards);
          R_previous p.cs_lsn
      | _ ->
          Kv.clear kv;
          R_none)

let count t = t.taken

let dump t =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "taken=%d;" t.taken);
  (match t.snapshot with
  | None -> Buffer.add_string b "none"
  | Some { cs_shards = shards; cs_lsn = lsn; _ } ->
      Buffer.add_string b (Printf.sprintf "lsn=%d;" lsn);
      List.iter
        (fun (shard, entries) ->
          Buffer.add_string b (Printf.sprintf "s%d{" shard);
          List.iter
            (fun (k, { Kv.value; version }) ->
              Buffer.add_string b (Printf.sprintf "%s=%s@%d;" k value version))
            entries;
          Buffer.add_char b '}')
        shards);
  Buffer.contents b
