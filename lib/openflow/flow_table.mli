(** An OpenFlow switch's flow table: priority-ordered entries with
    idle/hard timeouts and traffic counters, served by a three-level
    lookup hierarchy (OVS-style):

    + an exact-match {e microflow cache} keyed on the hashed packet
      fields;
    + a {e megaflow cache} of wildcarded cells whose masks un-wildcard
      only the fields the slow path actually consulted, so one cell
      covers a whole traffic class;
    + the {!Classifier} slow path (tuple-space search).

    Matching returns the highest-priority matching entry; among equal
    priorities the oldest entry wins (stable, deterministic), and the
    cached paths return the identical entry the slow path would —
    {!lookup_reference} keeps the original linear scan as the oracle.

    Invalidation: ADD drops exactly the cells the new rule overlaps
    (cached misses included); DELETE / MODIFY / {!expire} drop the
    cells produced by the touched rules (cells are tagged with their
    source-rule seq; cached misses survive removals).  Expiry is
    driven explicitly by the owner via {!expire} — the switch agent
    calls it from a periodic virtual-time timer. *)

open Horse_engine

type entry = {
  match_ : Ofmatch.t;
  priority : int;
  actions : Action.t list;
  cookie : int;
  idle_timeout : Time.t option;
  hard_timeout : Time.t option;
  installed_at : Time.t;
  mutable last_used : Time.t;
  mutable packets : int;
  mutable bytes : int;
}

(** Lookup-hierarchy counters, monotonic over the table's lifetime.
    [lookups = micro_hits + mega_hits + slow_hits + misses];
    [view_sorts] counts rebuilds of the lazy sorted view (only the
    reference scan and entry iteration sort — the hot path never
    does). *)
type stats = {
  mutable micro_hits : int;
  mutable mega_hits : int;
  mutable slow_hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable view_sorts : int;
  mutable lookups : int;
}

type t

val create : unit -> t
val stats : t -> stats

val cache_sizes : t -> int * int
(** [(microflow cells, megaflow cells)] currently cached. *)

val apply_flow_mod : t -> now:Time.t -> Ofmsg.flow_mod -> unit
(** ADD replaces an entry with the same match and priority; MODIFY
    rewrites the actions of entries with an equal match (or behaves
    like ADD when none exists); DELETE removes every entry whose match
    overlaps the given one (an all-wildcard match clears the
    table). *)

val lookup : t -> Ofmatch.fields -> entry option
(** The hierarchy (microflow, then megaflow, then slow path; misses
    are cached too).  Does not touch counters — use {!account} when
    traffic actually hits the entry. *)

val lookup_reference : t -> Ofmatch.fields -> entry option
(** The original linear scan over the sorted view — the oracle of the
    differential suite, byte-identical decisions to {!lookup}. *)

val account : entry -> now:Time.t -> packets:int -> bytes:int -> unit
(** Adds to the counters and refreshes the idle timestamp. *)

val expire : t -> now:Time.t -> entry list
(** Removes and returns entries past an idle or hard deadline. *)

val entries : t -> entry list
(** Priority order (the match order). *)

val matching_entries : t -> Ofmatch.t -> entry list
(** Entries whose match overlaps the given one — the flow-stats
    request semantics. *)

val size : t -> int
(** O(1) live count. *)

val clear : t -> unit
val pp : Format.formatter -> t -> unit
