(** Max-min fair bandwidth allocation.

    The fluid traffic model's rate assignment: every flow gets the
    largest rate such that (a) no link exceeds its capacity, (b) no
    flow exceeds its demand, and (c) a flow's rate can only be
    increased by decreasing the rate of a flow with an equal or
    smaller rate — the classic max-min fairness criterion that a
    network of fair queues converges to.

    Two implementations share the semantics: {!Delta} is the
    production incremental solver (the fluid hot path), and
    {!compute_reference} is the textbook progressive-filling loop kept
    as the oracle for differential testing. *)

type flow_input = {
  demand : float;  (** offered rate, bps; must be >= 0 *)
  links : int list;  (** directed link ids along the path; [] = unconstrained *)
}

val compute_reference :
  capacity:(int -> float) -> flow_input array -> float array
(** [compute_reference ~capacity flows] returns the max-min rate of
    each flow, positionally. [capacity] gives the bps capacity of a
    link id and must be positive for every referenced link. This is
    the O(rounds × (flows + links)) progressive-filling loop: the
    testing oracle that a from-scratch {!Delta} solve must match
    (asserted by the differential property suite).

    @raise Invalid_argument on a negative demand or non-positive
    capacity. *)

val link_loads : flow_input array -> float array -> (int * float) list
(** Total allocated rate per link id, for checking feasibility. *)

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
    physically the same floats as before the flush. *)
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

  val create : capacity:(int -> float) -> unit -> t
  (** [capacity] gives the bps capacity of a link id; it is consulted
      once per link on first reference and must be positive. *)

  val add_flow : t -> id:int -> demand:float -> links:int list -> unit
  (** @raise Invalid_argument on a negative demand or duplicate id. *)

  val remove_flow : t -> id:int -> unit
  (** Idempotent. *)

  val set_links : t -> id:int -> links:int list -> unit
  (** Reroute: move the flow onto a new path.
      @raise Invalid_argument on an unknown id. *)

  val flush : t -> unit
  (** Process all pending events with one delta solve (no-op when
      nothing is pending). *)

  val rate : t -> id:int -> float
  (** Rate as of the last flush (0 for an unknown id). *)

  val touched : t -> int list
  (** Flow ids whose rate was (re)assigned by the last flush —
      everything else is untouched memory. *)

  val flow_count : t -> int
  val stats : t -> stats
end
