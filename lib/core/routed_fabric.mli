(** A BGP-routed fabric: one emulated BGP speaker per switch/router
    node, eBGP sessions over every inter-switch link, and Loc-RIB
    routes installed into per-node simulated forwarding tables.

    This realises the demonstration's TE approach (i): "BGP plus
    Equal Cost Multipath path selection by hashing of IP source and
    destination". Each device gets its own ASN (the RFC 7938
    BGP-in-the-data-centre design), multipath is on, and the data
    plane resolves flow paths by walking the FIBs with a configurable
    ECMP hash. Every speaker runs on the CM's scheduler, and every
    session is a CM-observed channel. *)

open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_emulation
open Horse_bgp

type t

val build :
  ?asn_base:int ->
  ?hold_time:Time.t ->
  ?mrai:Time.t ->
  cm:Connection_manager.t ->
  originate:(int -> Prefix.t list) ->
  Topology.t ->
  t
(** [originate node_id] lists the prefixes the speaker on that node
    advertises (typically: edge switches advertise their host
    subnet). Host-facing /32 routes are installed statically, as a
    real fabric's connected routes would be. Speakers are created but
    not started. Defaults: ASNs from 64512, hold time 9 s, MRAI 0. *)

val start : t -> unit
(** Starts every speaker at the current virtual time, in speaker-table
    order (schedule this inside the experiment for a t=0 boot). *)

val topo : t -> Topology.t
val speakers : t -> (int * Speaker.t) list
val speaker : t -> int -> Speaker.t option
val table : t -> int -> Fwd.t
val all_prefixes : t -> Prefix.t list
(** Union of everything originated, sorted. *)

val fib_routes_installed : t -> int
(** Cumulative count of FIB writes (route adds/changes/removals). *)

val on_fib_change : t -> (int -> Prefix.t -> unit) -> unit

val is_converged : t -> bool
(** Every speaker has a FIB route for every originated prefix it does
    not itself originate. *)

val when_converged : ?check_every:Time.t -> t -> (unit -> unit) -> unit
(** Polls {!is_converged} on the CM's scheduler (default every 50 ms
    of virtual time) and fires the callback once, at the first instant
    it holds. *)

val path_for :
  ?hash:(Flow_key.t -> int) -> t -> Flow_key.t -> (Spf.path, string) result
(** Resolves the flow's data-plane path by walking the FIBs from the
    source host, selecting among ECMP groups with [hash] (default
    {!Flow_key.hash_src_dst} — the BGP scenario's hash). Fails when a
    hop has no route (not yet converged) or the walk exceeds 64
    hops. *)

val sessions_expected : t -> int
(** Number of eBGP sessions configured (one per inter-switch duplex
    link). *)

val sessions_established : t -> int

val fail_link : t -> a:int -> b:int -> bool
(** Cuts the control channel between two adjacent speakers (both
    sessions observe the closure immediately, retract the peer's
    routes and propagate withdrawals). Returns [false] when no
    session exists between the nodes or it is already down. The
    simulated data-plane link
    itself stays up — this is a control-plane fault, the classic
    "BGP session reset" experiment. *)

val restore_link : t -> a:int -> b:int -> bool
(** Re-establishes a previously failed session over a fresh
    CM-observed channel and restarts both ends. Returns [false] if
    the session does not exist or was never failed. *)

val crash_node : t -> int -> bool
(** Kills the node's speaker process — silent on the wire; peers find
    out via their hold timers. [false] if the node has no speaker or
    is already dead. *)

val restart_node : t -> int -> bool
(** Respawns a crashed speaker: its ConnectRetry re-initiates every
    session and peers re-send their tables. [false] unless the node
    is currently crashed. *)

val reset_session : t -> a:int -> b:int -> bool
(** One-sided administrative session reset (Cease NOTIFICATION from
    [a]'s end); both ConnectRetry timers then re-establish it. *)

val impair_link : t -> a:int -> b:int -> rng:Rng.t -> Channel.impairment option -> bool
(** Applies ([Some]) or clears ([None]) a channel impairment on the
    session between the nodes. *)

val fault_target : t -> Horse_faults.Injector.target
(** The fabric as a fault-injection target (node names resolve via
    the topology). A site with no speaker or no session reports
    [false] and is recorded as skipped. [converged] means every
    session established and {!is_converged}. *)

val fib_fingerprint : t -> string
(** Hex digest over every node's full forwarding table (prefixes and
    next-hop link ids, in {!Horse_dataplane.Fwd.routes} order). Two
    runs that converge to identical FIBs produce identical
    fingerprints — the fault-plane determinism check. *)

val node_name : t -> int -> string
(** The topology name of a node id. *)

val fib_provenance : t -> (string * Prefix.t * Causal.id) list
(** Every BGP-learned, currently-resolvable FIB entry as
    (node name, prefix, causal id of its last write), sorted by
    (name, prefix). The id is {!Causal.none} when tracing is off;
    otherwise its {!Causal.chain} runs back through the decision, the
    UPDATE, the channel hops and (after a fault) the fault node. *)

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
