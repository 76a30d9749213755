(** An OpenFlow switch's flow table: priority-ordered entries with
    idle/hard timeouts and traffic counters, looked up by the
    {!Classifier}'s tuple-space search.

    The fluid data plane resolves a flow's path once, when the flow
    starts or is re-steered, not once per packet, so there is no
    per-packet cache in front of the classifier.

    Matching returns the highest-priority matching entry; among equal
    priorities the oldest entry wins (stable, deterministic).
    {!entries} lists the same physical records in that match order, so
    a linear scan over it is the test oracle for {!lookup}.

    Expiry is driven by the owner via {!expire}. The table files only
    the entries that have an idle or hard timeout, in a deadline set of
    their own, so a table without timed entries pays nothing for
    expiry. The switch agent aims one event at {!next_deadline}. *)

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

(** Lookup counters, monotonic over the table's lifetime.
    [hits + misses] is the number of lookups; [probes] counts the
    classifier buckets probed ({!Classifier.probes}); [view_sorts]
    counts rebuilds of the lazy sorted view (only entry iteration
    sorts — {!lookup} never does). *)
type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable probes : int;
  mutable view_sorts : int;
}

type t

val create : unit -> t
val stats : t -> stats

val apply_flow_mod : t -> now:Time.t -> Ofmsg.flow_mod -> unit
(** ADD replaces an entry with the same match and priority; MODIFY
    rewrites the actions of entries with an equal match (or behaves
    like ADD when none exists); DELETE removes every entry whose match
    overlaps the given one (an all-wildcard match clears the
    table). *)

val lookup : t -> Ofmatch.fields -> entry option
(** The highest-priority matching entry, by tuple-space search.  Does
    not touch entry counters — use {!account} when traffic actually
    hits the entry. *)

val account : entry -> now:Time.t -> packets:int -> bytes:int -> unit
(** Adds to the counters and refreshes the idle timestamp. The entry's
    filed deadline is not moved: {!expire} refiles it lazily. *)

val next_deadline : t -> Time.t option
(** The earliest filed deadline, [None] when no entry has a timeout.
    An idle deadline that {!account} has since moved is reported as
    filed, so this is never later than the first real expiry. *)

val expire : t -> now:Time.t -> entry list
(** Removes and returns, in match order, the entries past an idle or
    hard deadline. It pops only the filed deadlines at or before
    [now], refiling an entry whose idle deadline has moved past
    [now]: O((k + r) log m) for k expired and r refiled entries out
    of m timed ones, independent of the untimed entries. *)

val entries : t -> entry list
(** Priority order (the match order): the first entry whose match
    admits a packet is the one {!lookup} returns. *)

val matching_entries : t -> Ofmatch.t -> entry list
(** Entries whose match overlaps the given one — the flow-stats
    request semantics. *)

val size : t -> int
(** O(1) live count. *)

