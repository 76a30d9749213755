(** A BGP-routed fabric: one emulated BGP speaker per switch/router
    node, eBGP sessions over every inter-switch link, and Loc-RIB
    routes installed into per-node simulated forwarding tables.

    This realises the demonstration's TE approach (i): "BGP plus
    Equal Cost Multipath path selection by hashing of IP source and
    destination". Each device gets its own ASN (the RFC 7938
    BGP-in-the-data-centre design), multipath is on, and the data
    plane resolves flow paths by walking the FIBs with a configurable
    ECMP hash. Every speaker runs on the CM's scheduler, and every
    session is a CM-observed channel.

    The fabric is {!Routed_core} with speakers as its daemons: a
    Loc-RIB change at a node becomes one FIB write per prefix. *)

open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_bgp

type t = Speaker.t Routed_core.fabric

val build :
  ?hold_time:Time.t ->
  cm:Connection_manager.t ->
  originate:(int -> Prefix.t list) ->
  Topology.t ->
  t
(** [originate node_id] lists the prefixes the speaker on that node
    advertises (typically: edge switches advertise their host
    subnet). Host-facing /32 routes are installed statically, as a
    real fabric's connected routes would be. Speakers are created but
    not started, and all of them intern path attributes in one
    {!Speaker.attr_table}, so a record lives once per fabric, not
    once per speaker that holds it. Default hold time 9 s. ASNs count up from 64512, and
    the MRAI is {!Speaker.default_config}'s (0). *)

val start : t -> unit
(** Starts every speaker at the current virtual time, in speaker-table
    order (schedule this inside the experiment for a t=0 boot). *)

(** {2 The routed-fabric surface}

    The values below are the {!Routed_core} ones the benchmarks and
    examples call through this module; the rest of that surface
    (speakers by node, convergence, session counts, FIB-change hooks,
    node restarts) is called as [Routed_core] on the fabric directly.
    Both are documented in {!Routed_core}, and shared with
    {!Ospf_fabric}. Here
    a session is an eBGP session, a fault that closes one makes both
    speakers retract the peer's routes and propagate withdrawals, a
    crashed speaker's peers find out via their hold timers, a
    restarted one's ConnectRetry re-initiates every session, and the
    fault target's [session_reset] sends a Cease NOTIFICATION from
    [a]'s end, after which both ConnectRetry timers re-establish the
    session. *)

val table : t -> int -> Fwd.t
val all_prefixes : t -> Prefix.t list
val fib_routes_installed : t -> int
val when_converged : t -> (unit -> unit) -> unit

val path_for :
  ?hash:(Flow_key.t -> int) -> t -> Flow_key.t -> (Spf.path, string) result
(** Default hash: {!Flow_key.hash_src_dst}, the BGP scenario's. *)

val fail_link : t -> a:int -> b:int -> bool
val restore_link : t -> a:int -> b:int -> bool
val crash_node : t -> int -> bool

val fault_target : t -> Horse_faults.Injector.target
(** Described as ["routed-fabric"]. *)

val fib_fingerprint : t -> string

(** {2 Causal nodes}

    Every FIB write records a ["fib:write"] node whose printer names
    the node through the topology; {!build} registers that kind on the
    run's graph ({!Horse_engine.Sched.local_kind}), so it is released
    with the graph. *)

val pack_fib_write : node:int -> Prefix.t -> int
(** The payload: the node id above the prefix's {!Prefix.to_bits}.
    @raise Invalid_argument unless [0 <= node < 2^24]. *)

val fib_write_detail : Topology.t -> int -> string
(** The printer: ["<node name> <prefix>"]. *)
