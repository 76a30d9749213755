(** An emulated BGP-4 routing daemon (the Quagga stand-in).

    A speaker runs as an {!Horse_emulation.Process}: its timers
    (keepalive, hold, MRAI) are virtual-time timers that die with the
    process, and its sessions are {!Horse_emulation.Channel}s carrying
    real serialized {!Msg} bytes. Sessions are eBGP: announcements to
    a peer get the speaker's ASN prepended, NEXT_HOP rewritten to the
    router id, and MED/LOCAL_PREF stripped.

    Protocol behaviour implemented: the session FSM
    (Idle → OpenSent → OpenConfirm → Established), hold-timer expiry
    with full route retraction, AS-path loop rejection, implicit and
    explicit withdraws, split-horizon towards the route's source
    peer(s), per-peer import/export policy, MRAI batching of updates,
    and BGP multipath in the decision process.

    {2 Control-plane scaling}

    The speaker behaves like a large-scale production daemon: peers whose export policies are
    {!Policy.equal} share one {e update group}, so the Adj-RIB-Out
    computation, the export-policy evaluation and the serialized
    UPDATE buffers are produced once per group; flushes pack as many
    NLRI as fit into each 4096-byte UPDATE ({!Msg.Packer}); with MRAI
    zero, flushes coalesce to the end of the current scheduler
    instant, so a received UPDATE carrying k prefixes triggers one
    outgoing flush, not k. Each peer keeps its own Adj-RIB-Out, the
    {!Attr_intern} uid of the record last announced per prefix, and a
    flush sends a member only what changes it: no announcement of the
    record it already holds, no withdrawal of a prefix it does not
    hold (FRR's [bgp suppress-duplicates]). Members that need a whole
    packed bucket share its buffers; a session that goes down forgets
    its Adj-RIB-Out, so a re-established one receives the full table.
    [horse_bgp_updates_suppressed_total{kind=announce|withdraw}]
    counts what was not sent. A group whose export policy cannot see
    the prefix memoizes each export on the input's {!Attr_intern}
    record, and every speaker of a fabric interns into one table
    ({!attr_table}), so the record an export produces is the one its
    receivers find when they decode it. *)

open Horse_net
open Horse_engine
open Horse_emulation

type peer_state = Idle | OpenSent | OpenConfirm | Established

type config = {
  asn : int;
  router_id : Ipv4.t;
  hold_time : Time.t;  (** proposed hold time; keepalives at a third *)
  mrai : Time.t;  (** Time.zero = advertise immediately *)
  multipath : bool;
  networks : Prefix.t list;  (** prefixes originated at startup *)
  processing_delay : Time.t;
      (** virtual CPU time consumed per received message, serialised
          through a single work queue — models the single-threaded
          processing of a real routing daemon. {!Time.zero} handles
          messages inline. *)
  connect_retry : Time.t;
      (** RFC 4271 ConnectRetry: Idle sessions that are not admin-down
          are re-initiated with a fresh OPEN at this interval, so a
          session lost to a peer crash or reset re-establishes by
          itself once the peer answers again. {!Time.zero} disables
          automatic re-initiation (pre-fault-injection behaviour). *)
}

val default_config : asn:int -> router_id:Ipv4.t -> config
(** hold 9 s, MRAI 0, multipath on, no networks, 100 µs processing
    delay, ConnectRetry 5 s. *)

type t

type attr_table
(** What the speakers of one fabric share: the path-attribute table
    ({!Attr_intern.t}) and the scheduler-wide BGP counters. *)

val attr_table : Sched.t -> attr_table
(** A path-attribute table for the speakers of one fabric. Its lookups
    and records feed the scheduler registry's
    [horse_bgp_attr_intern_hits_total],
    [horse_bgp_attrs_interned_total] and [horse_bgp_attrs_live]. It
    also looks up, once, the message, flush and suppression counters
    every speaker of the fabric adds to. *)

val create : intern:attr_table -> ?trace:Trace.t -> Process.t -> config -> t
(** [intern] is the attribute table the speaker shares with the other
    speakers of its fabric: its RIB's routes, its update groups' export
    memos and its flush buckets all hold records there, so a record one
    speaker exports is the record its peers intern on receipt. Only the
    speaker's [horse_bgp_rib_routes{router}] gauge is its own. *)

val asn : t -> int

val rib : t -> Rib.t
(** The speaker's RIB, for inspection and tests. *)

val add_peer :
  ?import:Policy.t -> ?export:Policy.t -> t -> remote_asn:int -> Channel.endpoint -> int
(** Configures a session over the given channel endpoint and returns
    the peer id. Call before {!start}. Default policies accept
    everything. *)

val start : t -> unit
(** Sends OPEN to every configured peer and arms the timers. *)

val shutdown : t -> unit
(** Graceful admin-down: NOTIFICATION (Cease) to every peer, sessions
    to Idle, and every session marked administratively down —
    ConnectRetry stops probing and incoming OPENs are refused until
    {!start_peer}. The underlying process stays alive. For a crash,
    {!Horse_emulation.Process.kill} the process instead: nothing is
    sent, peers find out via their hold timers, and
    {!Horse_emulation.Process.restart} later brings the sessions back
    via ConnectRetry. *)

val start_peer : t -> int -> unit
(** (Re)starts one session: clears admin-down, sends OPEN and moves
    the peer to OpenSent (no OPEN is sent unless the peer is Idle and
    the speaker has been started). Used to bring a session back after
    {!shutdown} or a repaired link. *)

val reset_session : t -> int -> unit
(** Hard session reset ("clear ip bgp"): NOTIFICATION (Cease /
    administrative reset) then the session drops to Idle on both ends
    — {e without} marking it admin-down, so both ConnectRetry timers
    re-establish it. No-op on an Idle session. *)

val replace_peer_endpoint : t -> int -> Channel.endpoint -> unit
(** Rebinds a peer to a fresh channel endpoint (the old channel of a
    failed link is gone for good); a session still riding the old
    transport is dropped first. Follow with {!start_peer}. *)

val announce : t -> Prefix.t -> unit
(** Originates a prefix at runtime. *)

val withdraw_network : t -> Prefix.t -> unit
(** Stops originating a prefix. *)

val peer_state : t -> int -> peer_state

val established_count : t -> int
(** O(1): maintained on FSM transitions. *)

val update_group_count : t -> int
(** Number of update groups (distinct export policies across peers). *)

val best : t -> Prefix.t -> Rib.route list
val routes : t -> (Prefix.t * Rib.route list) list

val on_loc_rib_change : t -> (Prefix.t -> Rib.route list -> unit) -> unit
(** Fired whenever the Loc-RIB entry for a prefix changes; an empty
    route list means the prefix was removed. This is where the
    Connection Manager installs routes into the simulated data
    plane. *)

type counters = {
  opens_sent : int;
  updates_sent : int;
  updates_received : int;
  keepalives_sent : int;
  keepalives_received : int;
  notifications_sent : int;
  decode_errors : int;
}

val counters : t -> counters

(** {2 Causal nodes}

    The kinds a speaker records, each an int payload formatted on
    read. A session going down is a {!Causal.text_kind} node
    (["down AS<n> (<reason>)"]). *)

val update_kind : Causal.kind
(** ["bgp:update"], printed ["from AS<asn> wd=<n> nlri=<n>"]; payload
    from {!pack_update}. *)

val pack_update : asn:int -> wd:int -> nlri:int -> int
(** @raise Invalid_argument unless [0 <= asn < 2^32] and both counts
    are in [0, 2^15). *)

val decide_kind : Causal.kind
(** ["bgp:decide"]; payload: the prefix's {!Prefix.to_bits}. *)

val established_kind : Causal.kind
(** ["bgp:session"], printed ["established AS<asn>"]; payload: the
    peer's ASN. *)
