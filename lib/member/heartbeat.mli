(** Heartbeat failure detector.

    Each site periodically beats to its peers; a peer silent for three
    consecutive intervals is declared down, and declared up again on the
    next beat heard.  The detector is deliberately simple
    (and, under partitions, deliberately wrong in the way real timeout
    detectors are wrong): unreachable and crashed look identical, which is
    exactly the ambiguity quorum commit is designed to survive. *)

open Rt_sim
open Rt_types

type t

val create :
  Engine.t ->
  self:Ids.site_id ->
  peers:Ids.site_id list ->
  interval:Time.t ->
  send_beat:(Ids.site_id -> unit) ->
  on_down:(Ids.site_id -> unit) ->
  on_up:(Ids.site_id -> unit) ->
  t
(** [on_up] fires only for recoveries (not at start, when every peer is
    presumed up). *)

val start : t -> unit

val stop : t -> unit
(** Stop beating and checking (the local site crashed). *)

val beat_received : t -> from:Ids.site_id -> unit

val is_up : t -> Ids.site_id -> bool

val up_peers : t -> Ids.site_id list
(** Sorted; excludes self. *)
