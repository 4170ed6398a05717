open Rt_types

type t =
  | Update of {
      txn : Ids.Txn_id.t;
      key : string;
      value : string;
      version : Kv.version;
    }
  | Prepared of { txn : Ids.Txn_id.t; participants : Ids.site_id list }
  | Precommit of Ids.Txn_id.t
  | Preabort of Ids.Txn_id.t
  | Collecting of Ids.Txn_id.t
  | Commit of Ids.Txn_id.t
  | Abort of Ids.Txn_id.t
  | End of Ids.Txn_id.t

let pp fmt = function
  | Update { txn; key; version; _ } ->
      Format.fprintf fmt "Update(%a,%s,v%d)" Ids.Txn_id.pp txn key version
  | Prepared { txn; participants } ->
      Format.fprintf fmt "Prepared(%a,%d sites)" Ids.Txn_id.pp txn
        (List.length participants)
  | Precommit t -> Format.fprintf fmt "Precommit(%a)" Ids.Txn_id.pp t
  | Preabort t -> Format.fprintf fmt "Preabort(%a)" Ids.Txn_id.pp t
  | Collecting t -> Format.fprintf fmt "Collecting(%a)" Ids.Txn_id.pp t
  | Commit t -> Format.fprintf fmt "Commit(%a)" Ids.Txn_id.pp t
  | Abort t -> Format.fprintf fmt "Abort(%a)" Ids.Txn_id.pp t
  | End t -> Format.fprintf fmt "End(%a)" Ids.Txn_id.pp t
