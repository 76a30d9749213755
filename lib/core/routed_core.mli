(** The protocol-agnostic core of a routed fabric: one emulated routing
    daemon per switch/router node, one control session per
    inter-switch link, and per-node simulated forwarding tables that
    the daemons' route changes write.

    {!Routed_fabric} (BGP) and {!Ospf_fabric} (OSPF) are this core plus
    a {!protocol} record and the translation of their route changes
    into {!write}s; each [include]s this module. The core owns
    everything else: the daemon and process tables, the session table,
    the static host routes, link and node faults and {!fault_target},
    FIB provenance and hooks, {!fib_fingerprint}, the FIB walk
    ({!path_for}) and convergence.

    {b Convergence} is an exact latch, not a poll. The core tracks, for
    every daemon node, every originated prefix the node does not
    originate itself, and keeps a count of the (node, prefix) pairs
    whose network address {!Horse_dataplane.Fwd.lookup} does not
    resolve. A write to prefix [p] at node [n] re-evaluates only the
    pairs at [n] whose network address [p] covers (longest-prefix
    match semantics, so overlapping originations are exact too). When
    the count reaches 0, {!when_converged}'s callbacks fire once, at
    the end of that instant ({!Horse_engine.Latch}). *)

open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_emulation

type 'd fabric

type 'd protocol = {
  name : string;
      (** ["bgp"], ["ospf"]: prefixes the process names
          (["bgp-<node>"]) and session names (["bgp a<->b"]), and is
          the convergence gauge's subsystem *)
  describe : string;  (** the fault target's {!Horse_faults.Injector.target.describe} *)
  router_id_net : int;
      (** nodes without an address get the router id
          [10.<router_id_net>.(id / 250).(id mod 250 + 1)] *)
  fib_detail : Topology.t -> int -> string;
      (** the printer of the fabric's ["fib:write"] causal nodes,
          registered on the run's graph at {!build} *)
  create : Process.t -> Topology.node -> router_id:Ipv4.t -> 'd * Prefix.t list;
      (** the node's daemon on its process, and the prefixes it
          originates *)
  attach : 'd -> remote:'d -> Channel.endpoint -> int;
      (** configures a session end and returns its handle (a BGP peer
          id, an OSPF interface id) *)
  rebind : 'd -> int -> Channel.endpoint -> unit;
      (** moves a session end onto a fresh channel *)
  resume : 'd -> int -> unit;
      (** restarts a rebound session end (called after both ends are
          rebound) *)
  reset : ('d -> int -> unit) option;
      (** a one-sided administrative reset from a session end, if the
          protocol has one *)
  established : 'd -> int;  (** the daemon's established session ends *)
  start : 'd -> unit;
}

val build : cm:Connection_manager.t -> 'd protocol -> Topology.t -> 'd fabric
(** Creates a daemon on every switch/router node (in node order), a
    session over every inter-daemon duplex link (in link order) on a
    CM-observed channel, and the static host routes: hosts default up,
    edge switches reach their hosts on connected /32s. Daemons are
    not started.
    @raise Invalid_argument if a host does not have degree 1. *)

(** {2 For protocols} *)

val link_of : 'd fabric -> int -> int -> int option
(** [link_of t node handle]: the out-link a session end runs over. *)

val fib_update : 'd fabric -> int -> (unit -> unit) -> unit
(** [fib_update t payload f] records a ["fib:write"] causal node with
    [payload] and runs [f] under it, restoring the ambient cause after
    (sibling updates stay siblings). *)

val write : 'd fabric -> int -> Prefix.t -> int list -> unit
(** [write t node prefix next_hops] installs the route as an ECMP
    group, or removes it when [next_hops] is empty. It counts the
    write, remembers the ambient cause as the entry's provenance,
    updates the convergence latch and runs the {!on_fib_change}
    hooks. *)

(** {2 The fabric} *)

val start : 'd fabric -> unit
(** Starts every daemon at the current virtual time, in daemon-table
    order (schedule this inside the experiment for a t=0 boot). *)

val topo : 'd fabric -> Topology.t
val daemons : 'd fabric -> (int * 'd) list
(** By node id. *)

val daemon : 'd fabric -> int -> 'd option
val table : 'd fabric -> int -> Fwd.t

val all_prefixes : 'd fabric -> Prefix.t list
(** Union of everything originated, sorted. *)

val fib_routes_installed : 'd fabric -> int
(** Cumulative count of {!write}s. *)

val on_fib_change : 'd fabric -> (int -> Prefix.t -> unit) -> unit
(** Runs after every {!write}, with its node and prefix. *)

val is_converged : 'd fabric -> bool
(** Every daemon resolves the network address of every originated
    prefix it does not originate itself. O(1): reads the latch's
    count. *)

val when_converged : 'd fabric -> (unit -> unit) -> unit
(** Runs the callback once, at the end of the first instant at which
    {!is_converged} holds (now, if the fabric has already fired), and
    records that instant in the protocol's [convergence_seconds]
    gauge. *)

val path_for :
  ?hash:(Flow_key.t -> int) -> 'd fabric -> Flow_key.t -> (Spf.path, string) result
(** Resolves the flow's data-plane path by walking the FIBs from the
    source host, selecting among ECMP groups with [hash] (default
    {!Flow_key.hash_src_dst}). Fails on an unknown source address, a
    hop with no route, or a walk beyond 64 hops. *)

val follow :
  ?hash:(Flow_key.t -> int) -> 'd fabric -> Fluid.t -> Flow.t list -> unit
(** Makes the flows follow the FIBs: at the end of each instant with a
    {!write}, every active flow is walked again with {!path_for} and
    moved by {!Fluid.set_path} if its path changed. A flow with no
    route keeps its path and is stopped 2 s after it lost the route,
    unless a later walk finds one. Nothing polls, and an empty list
    registers no hook. *)

val sessions_expected : 'd fabric -> int
(** One per inter-daemon duplex link. *)

val sessions_established : 'd fabric -> int
(** Established session ends over 2. *)

(** {2 Faults}

    Each returns whether the fault applied: [false] when no session
    joins the nodes (or the node has no daemon) or the session or
    process is already in the target state. *)

val fail_link : 'd fabric -> a:int -> b:int -> bool
(** Closes the session's control channel; both ends observe the
    closure immediately. The simulated data-plane link stays up. *)

val restore_link : 'd fabric -> a:int -> b:int -> bool
(** Splices a fresh CM-observed channel into a failed session: rebinds
    both ends, then resumes both. *)

val crash_node : 'd fabric -> int -> bool
(** Kills the node's daemon process, silently on the wire. *)

val fault_target : 'd fabric -> Horse_faults.Injector.target
(** The fabric as a fault-injection target (node names resolve via the
    topology). [converged] means {!is_converged} and every session
    established. Its [session_reset] is the protocol's one-sided reset
    from [a]'s end, [false] when the protocol has none. *)

(** {2 Determinism and provenance} *)

val fib_fingerprint : 'd fabric -> string
(** Hex digest over every node's full forwarding table (prefixes and
    next-hop link ids, in {!Horse_dataplane.Fwd.routes} order). Two
    runs that converge to identical FIBs produce identical
    fingerprints. *)

val fib_provenance : 'd fabric -> (string * Prefix.t * Causal.id) list
(** Every learned, currently-resolvable tracked FIB entry as (node
    name, prefix, causal id of its last write), sorted by (name,
    prefix). The id is {!Causal.none} when tracing is off; otherwise
    its {!Causal.chain} runs back through the protocol's decision, the
    messages and (after a fault) the fault node. *)
