(** An OpenFlow fabric: one emulated switch agent per switch node, an
    emulated controller process, and the machinery that lets the fluid
    data plane consult the flow tables — "in this case the control
    plane packets are actually sent to the data plane allowing for
    programmability" (paper §2).

    When a fluid flow starts, {!route_flow} walks the flow tables from
    the source host. A table miss raises a real PACKET_IN (carrying
    the flow's first frame) from the missing switch; once the
    controller's FLOW_MODs / PACKET_OUT come back, the walk resumes
    and the completed path is handed to the caller, who starts the
    fluid flow on it. Edge switches serve flow statistics backed by
    the fluid engine's byte integrals, so Hedera polls real numbers. *)

open Horse_net
open Horse_topo
open Horse_dataplane
open Horse_controller

type t

val build : cm:Connection_manager.t -> fluid:Fluid.t -> Topology.t -> t
(** Creates the controller and every switch agent, connects them
    through CM-observed channels (latency 1 ms), and performs
    the handshake when the scheduler runs. Dpids equal node ids;
    port [i+1] of a switch is its [i]-th out-link. *)

val controller : t -> Controller.t
val env : t -> Env.t

val route_flow : t -> Flow_key.t -> on_ready:(Spf.path -> unit) -> unit
(** Resolves the path for a new flow as described above. [on_ready]
    fires exactly once, possibly synchronously when every table
    already matches. Unresolvable flows (no route installed and no
    controller response) simply stay pending. *)

val resolve_now : t -> Flow_key.t -> Spf.path option
(** Pure table walk without PACKET_IN side effects; [None] on any
    miss. Used to re-resolve after a reroute. *)

val find_flow : t -> Flow_key.t -> Flow.t option
(** The active flow with this exact 5-tuple, the newest when several
    share it: the lookup behind the edge switches' flow statistics.
    The index is rebuilt from {!Fluid.active_flows} on the first
    lookup after the flow set changed, so it costs O(1) amortised per
    lookup while flows are steady. *)

val key_rebuilds : t -> int
(** Times {!find_flow} rebuilt its index. *)

val pending_flows : t -> int
val packet_ins : t -> int
(** Total PACKET_INs raised by all agents. *)

val handshaken : t -> bool
(** All switches completed the OpenFlow handshake. *)

val fault_target : t -> Horse_faults.Injector.target
(** Described as ["sdn-fabric"]: link down and up only; [converged]
    holds when no flow waits for a path. A link down takes the duplex
    link between two adjacent switches down: both agents raise
    PORT_STATUS to the controller, their [link_of_port] stops
    resolving the ports, and table entries pointing at them act as
    misses (re-raising PACKET_INs) until the applications repair the
    paths. Link down and up report [false] unless the named nodes are
    adjacent switches. *)
