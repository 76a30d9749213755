(** An OSPF-routed fabric: one emulated OSPF daemon per switch/router
    node, point-to-point adjacencies over every inter-switch link, and
    shortest-path routes installed into per-node forwarding tables.

    The OSPF counterpart of {!Routed_fabric} — same data-plane
    contract (static host routes, FIB walk with ECMP hashing), but a
    link-state control plane whose periodic HELLOs keep pulling the
    hybrid clock back into FTI mode even after convergence, which
    makes it a useful contrast experiment (see the [protocols] bench
    section). *)

open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_emulation
open Horse_ospf

type t

val build :
  ?hello_interval:Time.t ->
  ?dead_interval:Time.t ->
  cm:Connection_manager.t ->
  originate:(int -> (Prefix.t * int) list) ->
  Topology.t ->
  t
(** [originate node] lists (prefix, metric) stubs the daemon on that
    node advertises. Defaults: hello 2 s, dead 8 s. Daemons are
    created but not started. *)

val start : t -> unit

val topo : t -> Topology.t
val daemons : t -> (int * Daemon.t) list
val daemon : t -> int -> Daemon.t option
val table : t -> int -> Fwd.t
val all_prefixes : t -> Prefix.t list

val is_converged : t -> bool
(** Every daemon has a route to every stub prefix it does not itself
    originate. *)

val when_converged : ?check_every:Time.t -> t -> (unit -> unit) -> unit

val path_for :
  ?hash:(Flow_key.t -> int) -> t -> Flow_key.t -> (Spf.path, string) result

val adjacencies_expected : t -> int
val adjacencies_full : t -> int
(** Counted per direction over 2 (a Full adjacency needs both ends). *)

val fail_link : t -> a:int -> b:int -> bool
(** Cuts the control channel between two adjacent daemons; both ends
    see the closure, drop the adjacency, re-originate their LSAs and
    reconverge around the link. *)

val restore_link : t -> a:int -> b:int -> bool
(** Re-creates the control channel of a previously failed link and
    rebinds both daemons' interfaces to it; hellos resume immediately
    and the adjacency re-forms through the normal Init → TwoWay → Full
    progression. Returns [false] if no session exists between the
    nodes or the link is not failed. *)

val crash_node : t -> int -> bool
(** Kills the node's daemon process — silent on the wire; neighbours
    notice via their dead intervals. [false] if the node has no daemon
    or is already dead. *)

val restart_node : t -> int -> bool
(** Respawns a crashed daemon: it re-originates its LSA and resumes
    hellos on every interface. [false] unless the node is currently
    crashed. *)

val impair_link :
  t -> a:int -> b:int -> rng:Rng.t -> Channel.impairment option -> bool
(** Applies ([Some]) or clears ([None]) a channel impairment on the
    link between the nodes. *)

val fault_target : t -> Horse_faults.Injector.target
(** The fabric as a fault-injection target (node names resolve via the
    topology). [session_reset] is unsupported (OSPF adjacencies have
    no administrative reset here) and reports the fault as skipped;
    [converged] means every adjacency Full and every routing table
    complete. *)

val fib_write_detail : Topology.t -> int -> string
(** The printer of the fabric's ["fib:write"] causal nodes, registered
    on the run's graph at {!build}: ["<node name> (<n> routes)"] from
    a [Causal.pair node n] payload. *)
