(** Dynamic network partitions, including asymmetric (one-way) ones.

    A partition assigns every node to a component; messages are delivered
    only between nodes in the same component.  On top of that, individual
    {e directed} edges can be severed ({!sever}), which models one-way
    reachability failures (a router dropping one direction, asymmetric
    firewall rules): [src] can no longer reach [dst] while [dst]'s
    messages to [src] still flow.  The default state is fully
    connected. *)

type t

type node_id = int

val create : nodes:int -> t

val nodes : t -> int

val split : t -> node_id list list -> unit
(** [split t groups] places each listed group in its own component.  Nodes
    not mentioned keep component 0.  Raises [Invalid_argument] if a node id
    is out of range or listed twice. *)

val isolate : t -> node_id -> unit
(** Put one node alone in a fresh component. *)

val sever : t -> src:node_id -> dst:node_id -> unit
(** Cut the directed edge [src → dst]: messages from [src] to [dst] are
    lost, the reverse direction is untouched.  Severing an edge twice, or
    a self-edge, is a no-op. *)

val restore : t -> src:node_id -> dst:node_id -> unit
(** Undo {!sever} for one directed edge (no-op if not severed). *)

val heal : t -> unit
(** Restore full connectivity: components merge and every severed edge is
    restored. *)

val reachable : t -> src:node_id -> dst:node_id -> bool
(** Can a message from [src] currently reach [dst]?  Same component and
    the directed edge is not severed.  This is the check the network
    applies at send and delivery time. *)

val connected : t -> node_id -> node_id -> bool
(** Symmetric reachability: [reachable] in both directions. *)

val is_split : t -> bool
(** Some pair of nodes cannot communicate (component split or at least
    one severed edge). *)
