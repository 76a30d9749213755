(** BGP Routing Information Bases and the decision process.

    One {!t} holds a speaker's Adj-RIB-In (per peer), its locally
    originated routes, and the Loc-RIB computed from them by the
    RFC 4271 decision process:

    + highest LOCAL_PREF (missing = 100),
    + shortest AS_PATH,
    + lowest ORIGIN (IGP < EGP < INCOMPLETE),
    + lowest MED, compared only between routes whose first AS_PATH
      hop is the same neighbour AS (missing = 0),
    + lowest peer BGP identifier,
    + lowest peer id (a stable final tiebreak).

    With multipath enabled, every route tying through step 4 enters
    the Loc-RIB as an ECMP set (the relaxation used by data-centre
    BGP fabrics); otherwise steps 5–6 pick a single winner.

    The decision process is {e incremental}: every prefix keeps its
    candidate set sorted under the lexicographic criteria (steps 1–3
    plus the tiebreaks; MED is a filter over the leading equivalence
    class), so a refresh after a single-peer change is a bounded
    update of one sorted list rather than a scan over every peer's
    Adj-RIB-In. Attributes are hash-consed through {!Attr_intern}:
    AS-path length is cached and attribute comparison is O(1).

    {2 Costs}

    A RIB gives each prefix a dense {e id} the first time it sees it
    (one hash lookup, {!id}); the id never changes or gets reused, so a
    caller withdrawing a prefix it got from the wire looks it up with
    {!find_id} rather than giving it an id.
    Every per-prefix table is an array indexed by id: the Adj-RIB-In
    (one row per peer), the candidate lists and the Loc-RIB. The
    Adj-RIB-In and decision functions take ids and do no hashing at
    all: {!set_in_id} is one intern plus one pass over the prefix's
    candidate list, {!refresh_id} one decision over it, {!best_id} and
    {!loc_rib_size} an array read. Memory is one slot per id for each
    peer that sent a route since its last {!drop_peer_ids}.

    Every Adj-RIB-In slot and every Loc-RIB route holds a reference to
    its {!Attr_intern} record, so a record leaves the table once no
    route carries it. That adds O(1) to {!set_in_id} and
    {!withdraw_in_id} (one retain, one release), one release per route
    to {!drop_peer_ids}, and one retain and one release per route of
    the best sets a changed {!refresh_id} swaps; an unchanged refresh
    touches no count. *)

open Horse_net
open Horse_engine

val local_peer : int
(** The pseudo peer id (-1) of locally originated routes. *)

type route = {
  prefix : Prefix.t;
  attrs : Msg.attrs;  (** canonical interned record, [iattrs.attrs] *)
  iattrs : Attr_intern.interned;  (** hash-consed handle *)
  peer : int;  (** {!local_peer} for local routes *)
  peer_bgp_id : Ipv4.t;
  learned_at : Time.t;
}

type t

val create : ?intern:Attr_intern.t -> unit -> t
(** [intern] shares the owner's attribute table (the speaker passes
    its own so Adj-RIB-Out grouping reuses the same uids); a private
    table is created otherwise. *)

val intern_table : t -> Attr_intern.t
(** The attribute table the RIB's routes hold their records in. *)

(** {2 Prefix ids} *)

val id : t -> Prefix.t -> int
(** The prefix's id, assigned on first sight: ids are dense from 0 in
    order of first sight. *)

val find_id : t -> Prefix.t -> int
(** The prefix's id, or [-1] if the RIB has never seen it; assigns
    nothing. *)

val prefix_of_id : t -> int -> Prefix.t

val compare_ids : t -> int -> int -> int
(** Orders two ids as {!Horse_net.Prefix.compare} orders their
    prefixes. *)

(** {2 Adj-RIB-In} *)

val set_in_id :
  t -> peer:int -> peer_bgp_id:Ipv4.t -> at:Time.t -> int -> Msg.attrs -> unit
(** Installs/replaces the peer's route for the prefix with this id
    (from {!id}) in the Adj-RIB-In (implicit withdraw semantics). Does
    {e not} recompute the Loc-RIB — call {!refresh_id}. Peer ids must
    be [>= -1]; a RIB keeps one row for every peer id up to the
    largest it has seen. The new record is retained before the slot's
    old one is released, so re-announcing equal attributes keeps the
    record.
    @raise Invalid_argument on a peer id below [-1]. *)

val withdraw_in_id : t -> peer:int -> int -> unit
(** Idempotent. *)

val drop_peer_ids : t -> peer:int -> int list
(** Removes every route learned from the peer (session failure);
    returns the affected ids, in {!Horse_net.Prefix.compare} order of
    their prefixes, so the caller can {!refresh_id} them in that
    order. *)

val add_local : t -> at:Time.t -> Prefix.t -> Msg.attrs -> unit
(** Installs a locally originated route, as peer {!local_peer}. *)

(** {2 Decision process and Loc-RIB} *)

type refresh_outcome =
  | Unchanged
  | Changed of route list  (** the new best set; [[]] = prefix gone *)

val refresh_id : multipath:bool -> t -> int -> refresh_outcome
(** Recomputes the best set for one prefix id by the incremental
    decision process and updates the Loc-RIB. *)

val candidates : t -> Prefix.t -> route list
(** Every route held for the prefix: the local one and each peer's
    Adj-RIB-In entry, in no particular order. It reads the tables, not
    the incremental candidate lists {!refresh_id} decides over, so a
    decision recomputed from it checks those lists. *)

val best : t -> Prefix.t -> route list
(** Current Loc-RIB entry ([[]] if none). *)

val best_id : t -> int -> route list

val loc_rib : t -> (Prefix.t * route list) list
(** Sorted by prefix. *)

val loc_rib_ids : t -> int list
(** The ids of the Loc-RIB's prefixes, sorted by prefix. *)

val loc_rib_size : t -> int
(** O(1): a counter kept by {!refresh_id}. *)

val adj_in : t -> peer:int -> (Prefix.t * Msg.attrs) list
(** Sorted by prefix; for inspection and tests. *)
