(** Simulated message-passing network.

    Nodes are dense integer ids.  A message sent on a link is delivered to
    the destination's registered handler after a sampled latency, unless the
    link drops it or a partition separates the endpoints (checked both at
    send and at delivery time, so in-flight messages are lost when a
    partition forms).  Reachability is directional (see
    {!Partition.sever}), so one-way partitions lose exactly one
    direction's traffic.  Links are FIFO: delivery order matches send
    order per (src, dst) pair — duplicated messages are delivered after
    their original without reordering later sends ahead of them.

    {b Batching.}  With a [batch] window, messages to the same destination
    within the window travel as one wire envelope: one latency sample and
    one loss/duplication roll cover the whole envelope, and delivery
    unpacks its contents in FIFO order.  Partition and sever faults apply
    to the envelope, so a lost envelope loses exactly its contents.
    Without a window (the default) every message is its own envelope and
    behaviour is identical to the classical per-message network. *)

open Rt_sim

type node_id = int

type link = {
  latency : Latency.t;
  drop : float;  (** Probability an envelope is silently lost. *)
  duplicate : float;  (** Probability an envelope is delivered twice. *)
  overhead : Time.t;
      (** Per-envelope egress cost: each transmission occupies the
          sender's egress port for this long before propagation begins,
          serializing with every other envelope that node sends (on any
          link).  A batched envelope pays it once for all its messages —
          this is the per-message overhead batching amortizes.
          [Time.zero] models infinite egress bandwidth (the legacy
          behaviour: delivery time is purely a latency sample). *)
}

val reliable_link : ?overhead:Time.t -> Latency.t -> link
(** A link with the given latency, no faults, and the given per-envelope
    egress overhead (default zero). *)

type 'msg t

val create :
  ?batch:Time.t ->
  Engine.t ->
  nodes:int ->
  default:link ->
  'msg t
(** [create engine ~nodes ~default] builds a network of [nodes] nodes whose
    links all use [default].  [batch] (default off) enables per-link
    batching with the given flush window (must be positive); the flush
    event is plumbing, labelled [Engine.Internal src].  The RNG is split
    from the engine's root RNG. *)

val nodes : 'msg t -> int

val engine : 'msg t -> Engine.t

val partition : 'msg t -> Partition.t
(** The network's partition state; mutate it to inject (possibly one-way)
    partitions. *)

val link : 'msg t -> src:node_id -> dst:node_id -> link
(** The effective link for a pair: the override if set, else the default.
    Lets fault injectors transform the current link in place. *)

val set_link : 'msg t -> src:node_id -> dst:node_id -> link -> unit
(** Override the link used for messages from [src] to [dst]. *)

val clear_link : 'msg t -> src:node_id -> dst:node_id -> unit
(** Remove one pair's override so it reverts to the default link. *)

val clear_links : 'msg t -> unit
(** Remove every link override (fault-injection cleanup). *)

val register : 'msg t -> node_id -> (src:node_id -> 'msg -> unit) -> unit
(** Install the delivery handler for a node, replacing any previous one. *)

val send : 'msg t -> src:node_id -> dst:node_id -> 'msg -> unit
(** Fire-and-forget message send.  Sending to self is delivered after the
    link latency like any other message.  In batched mode the message
    joins the link's open window (arming the flush timer if none is
    open). *)

val broadcast : 'msg t -> src:node_id -> 'msg -> unit
(** Send to every node except [src]. *)

val in_flight : 'msg t -> (int * node_id * node_id * 'msg list) list
(** Envelopes scheduled for delivery but not yet delivered, as
    [(event_seq, src, dst, msgs)] sorted by send order ([event_seq]);
    each envelope lists its messages in FIFO order.  Delivery events are
    labelled [Engine.Delivery]; the seq here matches
    {!Rt_sim.Engine.frontier}, which is how the schedule explorer maps a
    frontier entry back to the envelope it would deliver.  Envelopes lost
    to a partition at delivery time still appear until their event
    fires. *)

val find_in_flight :
  'msg t -> seq:int -> (node_id * node_id * 'msg list) option
(** The in-flight envelope whose delivery event has the given seq. *)

val pending : 'msg t -> src:node_id -> dst:node_id -> 'msg list
(** Messages queued in the link's open batch window (send order), not yet
    on the wire.  Always empty without batching. *)

(** Exact tallies for experiment reporting.  All counts except
    [envelopes] are per {e message}: a dropped three-message envelope adds
    3 to its drop tally. *)
module Stats : sig
  type t = {
    mutable sent : int;
    mutable delivered : int;
    mutable dropped_link : int;  (** Lost to link drop faults. *)
    mutable dropped_partition : int;
        (** Lost to partitions / severed edges / missing handlers. *)
    mutable duplicated : int;
    mutable envelopes : int;
        (** Wire envelopes scheduled for delivery (duplicates included) —
            the network-event cost measure that batching amortizes. *)
  }

  val dropped : t -> int
  (** Total losses: [dropped_link + dropped_partition]. *)
end

val stats : 'msg t -> Stats.t

val dump : 'msg t -> msg:('msg -> string) -> string
(** Canonical rendering of the network's mutable state — delivery
    tallies, in-flight envelopes in send order ([src>dst:...]), and
    batched-but-unflushed queues ([src~dst:...]) — for state
    fingerprints (engine seqs excluded). *)
