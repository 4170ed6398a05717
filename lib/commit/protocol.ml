open Rt_types

type decision = Commit | Abort

let pp_decision fmt = function
  | Commit -> Format.pp_print_string fmt "commit"
  | Abort -> Format.pp_print_string fmt "abort"

let decision_equal (a : decision) b = a = b
let decision_rank = function Commit -> 0 | Abort -> 1
let decision_compare a b = Int.compare (decision_rank a) (decision_rank b)

type msg =
  | Vote_req
  | Vote_yes
  | Vote_no
  | Vote_read_only
  | Precommit_msg
  | Precommit_ack
  | Decision_msg of decision
  | Decision_ack
  | Decision_req
  | Decision_unknown
  | State_req
  | State_report of participant_state
  | Pq_state_req of epoch
  | Pq_state_report of epoch * participant_state
  | Pq_precommit of epoch
  | Pq_precommit_ack of epoch
  | Pq_preabort of epoch
  | Pq_preabort_ack of epoch
  | Px_p1a of epoch
  | Px_p1b of epoch * (Ids.site_id * epoch * decision) list
  | Px_p2a of epoch * Ids.site_id * decision
  | Px_p2b of epoch * Ids.site_id * decision
  | Px_nack of epoch

and participant_state =
  | P_uncertain
  | P_precommitted
  | P_preaborted
  | P_committed
  | P_aborted

and epoch = int * Ids.site_id

let epoch_compare (r1, s1) (r2, s2) =
  let c = Int.compare r1 r2 in
  if c <> 0 then c else Int.compare s1 s2

let pp_participant_state fmt = function
  | P_uncertain -> Format.pp_print_string fmt "uncertain"
  | P_precommitted -> Format.pp_print_string fmt "precommitted"
  | P_preaborted -> Format.pp_print_string fmt "preaborted"
  | P_committed -> Format.pp_print_string fmt "committed"
  | P_aborted -> Format.pp_print_string fmt "aborted"

let pp_epoch fmt (r, s) = Format.fprintf fmt "%d.%d" r s

let pp_msg fmt = function
  | Vote_req -> Format.pp_print_string fmt "vote-req"
  | Vote_yes -> Format.pp_print_string fmt "vote-yes"
  | Vote_no -> Format.pp_print_string fmt "vote-no"
  | Vote_read_only -> Format.pp_print_string fmt "vote-read-only"
  | Precommit_msg -> Format.pp_print_string fmt "precommit"
  | Precommit_ack -> Format.pp_print_string fmt "precommit-ack"
  | Decision_msg d -> Format.fprintf fmt "decision(%a)" pp_decision d
  | Decision_ack -> Format.pp_print_string fmt "decision-ack"
  | Decision_req -> Format.pp_print_string fmt "decision-req"
  | Decision_unknown -> Format.pp_print_string fmt "decision-unknown"
  | State_req -> Format.pp_print_string fmt "state-req"
  | State_report s -> Format.fprintf fmt "state(%a)" pp_participant_state s
  | Pq_state_req e -> Format.fprintf fmt "pq-state-req(%a)" pp_epoch e
  | Pq_state_report (e, s) ->
      Format.fprintf fmt "pq-state(%a,%a)" pp_epoch e pp_participant_state s
  | Pq_precommit e -> Format.fprintf fmt "pq-precommit(%a)" pp_epoch e
  | Pq_precommit_ack e -> Format.fprintf fmt "pq-precommit-ack(%a)" pp_epoch e
  | Pq_preabort e -> Format.fprintf fmt "pq-preabort(%a)" pp_epoch e
  | Pq_preabort_ack e -> Format.fprintf fmt "pq-preabort-ack(%a)" pp_epoch e
  | Px_p1a b -> Format.fprintf fmt "px-p1a(%a)" pp_epoch b
  | Px_p1b (b, accs) ->
      Format.fprintf fmt "px-p1b(%a,[%a])" pp_epoch b
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ";")
           (fun fmt (rm, ab, v) ->
             Format.fprintf fmt "%a@%a=%a" Ids.pp_site rm pp_epoch ab
               pp_decision v))
        accs
  | Px_p2a (b, rm, v) ->
      Format.fprintf fmt "px-p2a(%a,%a,%a)" pp_epoch b Ids.pp_site rm
        pp_decision v
  | Px_p2b (b, rm, v) ->
      Format.fprintf fmt "px-p2b(%a,%a,%a)" pp_epoch b Ids.pp_site rm
        pp_decision v
  | Px_nack b -> Format.fprintf fmt "px-nack(%a)" pp_epoch b

type log_tag =
  | L_collecting
  | L_prepared
  | L_precommit
  | L_preabort
  | L_decision of decision
  | L_end

let pp_log_tag fmt = function
  | L_collecting -> Format.pp_print_string fmt "collecting"
  | L_prepared -> Format.pp_print_string fmt "prepared"
  | L_precommit -> Format.pp_print_string fmt "precommit"
  | L_preabort -> Format.pp_print_string fmt "preabort"
  | L_decision d -> Format.fprintf fmt "decision(%a)" pp_decision d
  | L_end -> Format.pp_print_string fmt "end"

type timer = T_votes | T_decision | T_precommit_ack | T_state | T_resend

let timer_rank = function
  | T_votes -> 0
  | T_decision -> 1
  | T_precommit_ack -> 2
  | T_state -> 3
  | T_resend -> 4

let timer_compare a b = Int.compare (timer_rank a) (timer_rank b)

let timer_point = function
  | T_votes -> "votes"
  | T_decision -> "decision"
  | T_precommit_ack -> "precommit-ack"
  | T_state -> "state"
  | T_resend -> "resend"

type action =
  | Send of Ids.site_id * msg
  | Log of log_tag * [ `Forced | `Lazy ]
  | Deliver of decision
  | Set_timer of timer * Rt_sim.Time.t
  | Clear_timer of timer
  | Blocked
  | Forget

let pp_action fmt = function
  | Send (dst, m) -> Format.fprintf fmt "send(%a,%a)" Ids.pp_site dst pp_msg m
  | Log (tag, `Forced) -> Format.fprintf fmt "log!(%a)" pp_log_tag tag
  | Log (tag, `Lazy) -> Format.fprintf fmt "log(%a)" pp_log_tag tag
  | Deliver d -> Format.fprintf fmt "deliver(%a)" pp_decision d
  | Set_timer (t, d) ->
      Format.fprintf fmt "set-timer(%s,%a)" (timer_point t) Rt_sim.Time.pp d
  | Clear_timer t -> Format.fprintf fmt "clear-timer(%s)" (timer_point t)
  | Blocked -> Format.pp_print_string fmt "blocked"
  | Forget -> Format.pp_print_string fmt "forget"

type input =
  | Start
  | Recv of Ids.site_id * msg
  | Log_done of log_tag
  | Timeout of timer
  | Peer_down of Ids.site_id
  | Peers_reachable of Ids.site_id list

let msg_point = function
  | Vote_req -> "vote-req"
  | Vote_yes -> "vote-yes"
  | Vote_no -> "vote-no"
  | Vote_read_only -> "vote-read-only"
  | Precommit_msg -> "precommit"
  | Precommit_ack -> "precommit-ack"
  | Decision_msg Commit -> "decision-commit"
  | Decision_msg Abort -> "decision-abort"
  | Decision_ack -> "decision-ack"
  | Decision_req -> "decision-req"
  | Decision_unknown -> "decision-unknown"
  | State_req -> "state-req"
  | State_report _ -> "state-report"
  | Pq_state_req _ -> "pq-state-req"
  | Pq_state_report _ -> "pq-state-report"
  | Pq_precommit _ -> "pq-precommit"
  | Pq_precommit_ack _ -> "pq-precommit-ack"
  | Pq_preabort _ -> "pq-preabort"
  | Pq_preabort_ack _ -> "pq-preabort-ack"
  | Px_p1a _ -> "px-p1a"
  | Px_p1b _ -> "px-p1b"
  | Px_p2a _ -> "px-p2a"
  | Px_p2b _ -> "px-p2b"
  | Px_nack _ -> "px-nack"

let log_tag_point = function
  | L_collecting -> "collecting"
  | L_prepared -> "prepared"
  | L_precommit -> "precommit"
  | L_preabort -> "preabort"
  | L_decision Commit -> "decision-commit"
  | L_decision Abort -> "decision-abort"
  | L_end -> "end"

let input_point = function
  | Start -> "start"
  | Recv (_, m) -> "recv-" ^ msg_point m
  | Log_done tag -> "logged-" ^ log_tag_point tag
  | Timeout t -> "timeout-" ^ timer_point t
  | Peer_down _ -> "peer-down"
  | Peers_reachable _ -> "peers-reachable"

type timeouts = {
  vote_collect : Rt_sim.Time.t;
  decision_wait : Rt_sim.Time.t;
  resend_every : Rt_sim.Time.t;
}

let default_timeouts =
  {
    vote_collect = Rt_sim.Time.ms 50;
    decision_wait = Rt_sim.Time.ms 50;
    resend_every = Rt_sim.Time.ms 100;
  }

module Sset = Set.Make (Int)

let send_to set msg = List.map (fun p -> Send (p, msg)) (Sset.elements set)
let set_str s = String.concat "," (List.map string_of_int (Sset.elements s))
let dec_str = function Commit -> "C" | Abort -> "A"
let epoch_str (r, s) = Printf.sprintf "%d.%d" r s

let reports_str rs =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) rs
  |> List.map (fun (s, st) ->
         Format.asprintf "%d=%a" s pp_participant_state st)
  |> String.concat ","
