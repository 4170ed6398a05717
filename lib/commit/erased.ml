open Protocol

type 'm machine = {
  step : 'm -> input -> 'm * action list;
  decision : 'm -> decision option;
  blocked : 'm -> bool;
  describe : 'm -> string;
}

type t = T : 'm machine * 'm -> t

let make k m = T (k, m)

let step (T (k, m)) i =
  let m', actions = k.step m i in
  (T (k, m'), actions)

let decision (T (k, m)) = k.decision m
let blocked (T (k, m)) = k.blocked m
let describe (T (k, m)) = k.describe m

let state_of = function Commit -> P_committed | Abort -> P_aborted

let finished_machine =
  {
    step =
      (fun d i ->
        match i with
        | Recv (src, Decision_req) -> (d, [ Send (src, Decision_msg d) ])
        | Recv (src, State_req) ->
            (d, [ Send (src, State_report (state_of d)) ])
        | Recv (src, Pq_state_req e) ->
            (d, [ Send (src, Pq_state_report (e, state_of d)) ])
        | Recv (src, (Px_p1a _ | Px_p2a _)) ->
            (* A paxos recovery leader is probing a settled transaction:
               the decision supersedes any ballot. *)
            (d, [ Send (src, Decision_msg d) ])
        | _ -> (d, []));
    decision = Option.some;
    blocked = (fun _ -> false);
    describe =
      (fun d ->
        Printf.sprintf "finished{%s}"
          (match d with Commit -> "C" | Abort -> "A"));
  }

let finished d = T (finished_machine, d)
