(** Type-erased commitment machines.

    The cluster engine and the sandbox both need to hold "some protocol
    machine" without caring which protocol it is.  A concrete machine
    type is erased by pairing a state with the {!machine} record of
    functions that steps and observes it; {!Commit_protocol} holds one
    such record per protocol role. *)

open Protocol

type 'm machine = {
  step : 'm -> input -> 'm * action list;
  decision : 'm -> decision option;
  blocked : 'm -> bool;
  describe : 'm -> string;
      (** Canonical single-line rendering of the {e complete} machine
          state — not just the observable facets — so a schedule
          explorer can fingerprint it.  Equal descriptions imply machines
          that behave identically on every input. *)
}

type t

val make : 'm machine -> 'm -> t

val step : t -> input -> t * action list

val decision : t -> decision option

val blocked : t -> bool

val describe : t -> string

val finished : decision -> t
(** A site that already knows the outcome: answers [Decision_req], state
    requests, and paxos leader probes, ignores everything else. *)
