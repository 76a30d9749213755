(** An OSPF-routed fabric: one emulated OSPF daemon per switch/router
    node, point-to-point adjacencies over every inter-switch link, and
    shortest-path routes installed into per-node forwarding tables.

    The OSPF counterpart of {!Routed_fabric}, on the same
    {!Routed_core}: same static host routes, FIB walk, fault surface
    and convergence latch, but a link-state control plane whose
    periodic HELLOs keep pulling the hybrid clock back into FTI mode
    even after convergence, which makes it a useful contrast
    experiment (see the [protocols] bench section). A daemon's
    routing-table change replaces every route it installed at that
    node. *)

open Horse_net
open Horse_topo
open Horse_ospf

type t = Daemon.t Routed_core.fabric

val build :
  cm:Connection_manager.t -> originate:(int -> (Prefix.t * int) list) -> Topology.t -> t
(** [originate node] lists (prefix, metric) stubs the daemon on that
    node advertises. The daemons keep {!Daemon.default_config}'s
    timers (hello 2 s, dead 8 s) and are created but not started.

    Everything else a fabric offers (start, FIB tables and walks,
    convergence, sessions, link and node faults, the fault target
    ["ospf-fabric"], the FIB fingerprint) is the {!Routed_core}
    surface, called on the fabric directly. Here a session is an
    adjacency (established = Full at both ends), a failed link makes
    both ends drop the adjacency, re-originate their LSAs and
    reconverge around it, a restored one re-forms through Init →
    TwoWay → Full, a crashed daemon's neighbours notice via their dead
    intervals, and a restarted one re-originates its LSA and resumes
    hellos. OSPF has no administrative session reset: the fault
    target's [session_reset] reports [false]. *)

val fib_write_detail : Topology.t -> int -> string
(** The printer of the fabric's ["fib:write"] causal nodes, registered
    on the run's graph at {!build}: ["<node name> (<n> routes)"] from
    a [Causal.pair node n] payload — one node per routing-table
    install. *)
