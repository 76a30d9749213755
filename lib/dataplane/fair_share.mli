(** Max-min fair bandwidth allocation.

    The fluid traffic model's rate assignment: every flow gets the
    largest rate such that (a) no link exceeds its capacity, (b) no
    flow exceeds its demand, and (c) a flow's rate can only be
    increased by decreasing the rate of a flow with an equal or
    smaller rate — the classic max-min fairness criterion that a
    network of fair queues converges to.

    {!Delta} is the one production solver (the fluid hot path). The
    textbook progressive-filling loop it is tested against lives in
    the test support library ([Horse_test_support.Fair_share_reference]). *)

(** Incremental max-min solver with persistent bottleneck state.

    A {!Delta.t} holds the full flow/link membership plus, per link,
    the water level at which it last saturated. Arrival, departure and
    reroute events accumulate between flushes; {!Delta.flush} re-runs
    water filling only over the links the events touched, clamping
    every other member of those links at its previous rate (it behaves
    exactly like a demand-limited flow whose external bottleneck is
    untouched). The scoped solution is accepted only when (a) every
    clamped flow reproduces its previous rate bit-for-bit and (b) no
    in-solve link's saturation level changed while it still has
    clamped members; any breach promotes the breached flows into the
    scope and the solve expands along the flow/link sharing graph —
    the bottleneck-set change propagation of the delta design. The
    fixpoint therefore agrees with a from-scratch solve of the
    component, while an event whose bottleneck structure is local
    costs work proportional to its neighbourhood, not the component.

    Events whose links all sit strictly below saturation skip the
    water-fill entirely: a link that never binds (level = infinity)
    with residual capacity for the added load cannot change the
    bottleneck set, so an arrival commits at its demand, and a
    departure or reroute off such links relaxes constraints without
    moving anyone's rate — O(path) per event, the common case when
    links run below capacity.

    Flows outside the final scope are never written: their rates are
    physically the same floats as before the flush.

    {b Data layout.} A flush allocates no hash table and hashes
    nothing, and its loops store no pointer, so they run no write
    barrier. Each flow's state lives in columns indexed by a dense
    slot: its id and the scope, clamped and promoted stamps in int
    arrays, demand and rate in float arrays, the live and pending bits
    in a byte column, and its links in a list column. A removed flow's
    slot is handed out again from the second flush after the removal
    on. An id-to-slot map serves only {!Delta.add_flow},
    {!Delta.remove_flow}, {!Delta.set_links} and {!Delta.rate}. Link
    state (capacity, water level, load, stamps) lives in columns
    indexed by link id. Each link keeps its members as an int array of
    slots sorted by ascending flow id; insert and remove find the
    position by binary search and shift the tail with a typed loop.
    The per-flush sets — scope, in-solve links, clamped and promoted
    flows, dense link numbering — are epoch/round stamps in those
    columns, and the water fill runs on flat int and float work arrays
    reused across flushes. A work array is replaced only when it is
    full, so filling it writes no record field.
    The sorts run on unboxed keys carrying the slot. The scope is
    sorted by id once per flush. Each round gathers the clamped flows'
    ids from the in-solve links' id-sorted member vectors and
    merge-sorts those runs. Promoted flows, already in id order, are
    merged into the sorted scope in linear time. The demand order is a
    three-way-partition quicksort of the float demands.

    {b Orderings.} Float sums depend on their order, so the solver
    fixes three orders, and its rates and timers depend on them bit
    for bit:
    - a round solves the scope flows by ascending id, then the clamped
      flows by ascending id;
    - dense link numbers follow first reference over that flow order,
      and break ties between equal bottleneck shares;
    - {!Delta.iter_touched} visits the fast-path flows, then the scope
      by ascending id ([Fluid] arms completion timers in that order).
      The fast-path flows come in event order when the flush ran a
      water fill, and newest first when it ran none.

    Freezes of equal value commute, so the demand sort may order ties
    freely. *)
module Delta : sig
  type t

  type stats = {
    solves : int;  (** flushes that had pending events *)
    events : int;  (** add/remove/reroute events received *)
    flows_touched : int;
        (** flows entering a scoped water-fill, summed over all solve
            iterations — the solver-work metric the benchmarks gate *)
    links_touched : int;
    expansions : int;  (** fixpoint iterations beyond the first *)
    promotions : int;  (** clamped flows pulled into a scope *)
  }

  val create : ?links:int -> capacity:(int -> float) -> unit -> t
  (** [capacity] gives the bps capacity of a link id; it is consulted
      when a link gains its first member and must be positive. Link ids
      must be non-negative; the link table is an array indexed by
      them. [links] (default 256) is the number of link ids the table
      starts with room for; it grows past that on demand. *)

  val add_flow : t -> id:int -> demand:float -> links:int list -> unit
  (** Any int is a valid id, in any arrival order.
      @raise Invalid_argument on a negative demand, a duplicate id, or
      a link with a negative id or non-positive capacity. It raises
      before changing any state. *)

  val remove_flow : t -> id:int -> unit
  (** Idempotent. *)

  val set_links : t -> id:int -> links:int list -> unit
  (** Reroute: move the flow onto a new path.
      @raise Invalid_argument on an unknown id, or a link with a
      negative id or non-positive capacity. It raises before changing
      any state. *)

  val flush : t -> unit
  (** Process all pending events with one delta solve (no-op when
      nothing is pending). *)

  val rate : t -> id:int -> float
  (** Rate as of the last flush (0 for an unknown id). A hash lookup:
      a caller that follows a flush reads {!iter_touched} instead. *)

  val iter_touched : t -> (int -> float -> unit) -> unit
  (** [iter_touched d f] calls [f id rate] for each flow whose rate the
      last flush (re)assigned, in the order {b Orderings} gives;
      everything else is untouched memory. A flow can be visited more
      than once: once per fast-path commit, and again in the scope. A
      flow removed since then is still visited, with rate 0. No
      lookup: the flush keeps the flow records it touched. *)

  val fold_link : t -> link:int -> (int -> float -> 'a -> 'a) -> 'a -> 'a
  (** [fold_link d ~link f init] folds [f id rate] over the flows whose
      path crosses [link], by ascending id: the link's member vector.
      Rates are as of the last flush; a flow added or rerouted since
      reads its stale rate, so flush first. O(members). *)

  val flow_count : t -> int
  val stats : t -> stats
end
