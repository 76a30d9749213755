(** The emulated OSPF routing daemon.

    Like the BGP {!Horse_bgp.Speaker}, a daemon is an
    {!Horse_emulation.Process} exchanging real wire-format packets
    over emulated channels. Interfaces are point-to-point. The
    protocol cycle:

    - HELLOs every [hello_interval] on every interface; an adjacency
      reaches Full when both sides have heard each other (the two-way
      check), at which point each floods its full LSDB to the other;
    - each daemon originates one Router-LSA (point-to-point links to
      Full neighbours plus its stub prefixes) and re-originates with a
      higher sequence number whenever an adjacency comes or goes;
    - LS UPDATEs flood on arrival (newer → forward everywhere else and
      acknowledge; duplicate → acknowledge; older → drop);
    - a neighbour silent for [dead_interval] is declared down;
    - route computation (Dijkstra over the LSDB) is debounced by
      [spf_delay] and published through {!on_routes_change}.

    OSPF's control-plane rhythm differs from BGP's in exactly the way
    that matters to Horse: HELLOs keep arriving forever, so an OSPF
    experiment re-enters FTI periodically even when fully converged. *)

open Horse_net
open Horse_engine
open Horse_emulation

type config = {
  router_id : Ipv4.t;
  hello_interval : Time.t;
  dead_interval : Time.t;
  stub_prefixes : (Prefix.t * int) list;  (** prefix, metric *)
  spf_delay : Time.t;
  processing_delay : Time.t;
}

val default_config : router_id:Ipv4.t -> config
(** hello 2 s, dead 8 s, SPF delay 10 ms, processing 50 µs, no
    stubs. (The RFC's 10 s / 40 s defaults scaled down, as every
    simulation study does.) *)

type neighbor_state = Down | Init | Full

val pp_neighbor_state : Format.formatter -> neighbor_state -> unit

type t

val create : ?trace:Trace.t -> Process.t -> config -> t

val add_interface : t -> Channel.endpoint -> int
(** Attaches a point-to-point interface (metric 1) and returns its id.
    Call before {!start}. *)

val rebind_interface : t -> int -> Channel.endpoint -> unit
(** Rebinds an existing interface to a fresh channel endpoint after a
    repaired link (the failed link's channel is gone for good) and
    sends an immediate hello; the adjacency then re-forms through the
    normal hello exchange. *)

val start : t -> unit
(** Arms the hello/dead-interval timers and originates the first LSA.
    After {!start}, the daemon also survives a
    {!Horse_emulation.Process.kill} /
    {!Horse_emulation.Process.restart} cycle: a crash drops all
    adjacencies silently (neighbours notice via their dead intervals)
    and withdraws installed routes; a restart re-originates,
    re-hellos and re-arms the timers, so adjacencies re-form without
    outside help. *)

val routes : t -> Lsdb.route list
(** The current shortest-path routing table. *)

val lsdb : t -> Lsdb.t
val neighbor_state : t -> int -> neighbor_state
(** By interface id. *)

val full_neighbors : t -> int
val interface_of_neighbor : t -> Ipv4.t -> int option
(** The interface a Full neighbour was learned on. *)

val on_routes_change : t -> (Lsdb.route list -> unit) -> unit

type counters = {
  hellos_sent : int;
  hellos_received : int;
  updates_sent : int;
  updates_received : int;
  acks_sent : int;
  spf_runs : int;
  lsa_originations : int;
}

val counters : t -> counters

(** {2 Causal nodes} *)

val spf_kind : Causal.kind
(** ["ospf:spf"], printed ["<n> routes"]; payload: the route count. *)

val adj_kind : Causal.kind
(** ["ospf:adj"], printed ["iface <id> -> <state>"]; payload from
    {!pack_adj}. *)

val pack_adj : iface:int -> neighbor_state -> int
(** @raise Invalid_argument unless [0 <= iface < 2^30]. *)

val lsa_kind : Causal.kind
(** ["ospf:lsa"], printed ["<n> LSAs via iface <id>"]; payload:
    [Causal.pair n iface]. *)
