(** Reactive ECMP routing — the demonstration's TE approach (iii)
    "SDN 5-tuple ECMP", with the (i)-style source/destination hash as
    an alternative mode.

    On each PACKET_IN the application parses the frame, hashes the
    flow key to an index among the equal-cost shortest paths between
    the two hosts, builds only that path ({!Env.ecmp_pick}), installs
    exact-match entries along it, and releases the packet with
    PACKET_OUT. All control-plane activity is therefore concentrated
    at flow arrival — exactly the pattern the paper uses to showcase
    the DES/FTI transition. *)

open Horse_net
open Horse_topo

type mode =
  | Five_tuple  (** hash(src ip, dst ip, proto, ports) *)
  | Src_dst  (** hash(src ip, dst ip) — coarser, collision-prone *)

type t

val install : ?mode:mode -> ?priority:int -> Controller.t -> Env.t -> t
(** Hooks the application into the controller. Defaults: [Five_tuple],
    priority 10. Entries have no timeout. *)

val flows_routed : t -> int

val reroutes : t -> int
(** Flows moved in response to PORT_STATUS events. *)

val on_reroute : t -> (Flow_key.t -> Spf.path -> unit) -> unit
(** Fired when a port-status event forces a routed flow onto a new
    path (the experiment scaffolding re-paths the fluid flow). *)

val path_of : t -> Flow_key.t -> Spf.path option
(** The path this application chose for a flow (for tests and for
    Hedera's bookkeeping). *)

val path_index : mode -> Flow_key.t -> int -> int
(** [path_index mode key n] is the index, below [n], of the path a
    flow takes among [n] equal-cost candidates: the flow key's hash
    under [mode], reduced by {!Flow_key.select}. Pure; exposed for
    tests. *)
