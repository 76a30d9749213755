(** The fluid-rate simulated data plane (paper §2: "a simplistic
    simulated data plane that runs a fluid rate traffic model").

    Traffic is a set of {!Flow.t} values. Whenever the flow set, a
    path, or a demand changes, the engine (1) integrates the affected
    flows' delivered bits up to the current virtual time at their old
    rates and (2) reassigns rates by max-min fair share. Between
    changes nothing happens — which is exactly why the hybrid clock
    can leap forward in DES mode while only data-plane traffic is
    active.

    {b Recompute coalescing.} Mutations ({!start_flow}, {!stop_flow},
    {!set_path}) do not solve on the spot: they mark the engine dirty
    and the single pending solve drains at the end of the current
    scheduler instant (via {!Sched.defer}), or lazily on the first
    rate read — so a burst of [k] flow events inside one event batch
    costs one max-min solve, not [k]. The coalescing is observable
    only through the [recomputes_total] vs [recompute_requests_total]
    counters: every read accessor flushes first, so rates are always
    consistent with the full mutation history.

    {b One flow store.} Flows are numbered densely from 0 in start
    order, and active flows sit in an array indexed by that id; a
    stopped flow's slot is cleared, so it retires out of every scan
    into completed accumulators. Link membership is not kept twice:
    the per-link readers ({!flows_on_link}, {!link_load}) fold over
    the solver's id-sorted member vector for that link. Scans over all
    flows ({!active_flows}, {!total_rx_rate}, {!total_delivered_bits},
    the sampler) walk the ids in ascending order, so every float sum
    has one fixed order. A solve looks no flow up by hash.

    {b Incremental solves.} Rates come from one {!Fair_share.Delta}
    engine: it keeps per-link bottleneck state across solves and
    water-fills only the links whose bottleneck set a mutation
    changed, so rates outside that scope are untouched.

    Rate sampling (for the demonstration's aggregate-throughput graph)
    is a periodic simulation event recorded into {!Horse_stats.Series}
    containers. *)

open Horse_net
open Horse_engine
open Horse_topo

type t

val create : Sched.t -> Topology.t -> t

val start_flow :
  ?demand:float -> ?users:int -> t -> key:Flow_key.t -> path:Spf.path -> Flow.t
(** Starts a flow at the current virtual time. Default demand 1 Gbps.
    An empty path models a locally-delivered (never-constrained)
    flow. [?users] (default 1) makes the flow a {e flow class}: one
    fluid flow standing for that many users, with [demand] the class
    aggregate — the million-user workload unit.
    @raise Invalid_argument on non-positive demand, [users < 1], or a
    discontiguous path. *)

val start_finite_flow :
  ?demand:float ->
  t ->
  key:Flow_key.t ->
  path:Spf.path ->
  size_bits:float ->
  on_complete:(Flow.t -> unit) ->
  Flow.t
(** Like {!start_flow} for one user, but the flow carries a finite
    volume: once [size_bits] have been delivered the engine stops the
    flow and fires [on_complete]. Completion timing is exact under the
    fluid model — the engine re-aims the completion event whenever a
    rate reallocation changes the flow's ETA. Flow completion time is
    [stopped_at - started].
    @raise Invalid_argument on non-positive size. *)

val stop_flow : t -> Flow.t -> unit
(** Integrates, deactivates and removes the flow from the allocation.
    Idempotent. *)

val set_path : t -> Flow.t -> Spf.path -> unit
(** Reroutes the flow (e.g. after a control-plane update); its
    delivered bits are preserved.
    @raise Invalid_argument on a discontiguous path or a stopped
    flow. *)

val active_flows : t -> Flow.t list
(** In start order (ascending id). Membership does not wait for a
    pending solve, so this runs no solve; read rates through
    {!current_rate}. O(flows ever started). *)

val flow_count : t -> int

val flows_on_link : t -> int -> Flow.t list
(** Active flows whose path crosses the directed link, in start
    order. O(flows on that link): the solver's member vector. *)

val current_rate : t -> Flow.t -> float
(** Allocated rate right now (0 for a stopped flow). *)

val delivered_bits : t -> Flow.t -> float
(** Bits delivered up to the current virtual time (integrates on
    read). *)

val link_load : t -> int -> float
(** Total allocated bps crossing a directed link, summed by ascending
    flow id. O(flows on that link). *)

val link_utilization : t -> int -> float
(** [link_load / capacity], in [0, 1] for a feasible allocation. *)

val total_rx_rate : t -> float
(** Sum of all active flows' rates by ascending id — the
    demonstration's "aggregated rate of all flows arriving at the
    hosts". *)

val host_rx_rate : t -> int -> float
(** Aggregate rate of flows terminating at the given node, summed by
    ascending flow id. Computed on demand, O(flows ever started); the
    sampler sums every node in one pass instead. *)

val start_sampling : t -> every:Time.t -> unit
(** Begin periodic sampling of the aggregate rx rate (and per-host
    rates) into the series below. Restarting moves the cadence. *)

val aggregate_series : t -> Horse_stats.Series.t

val host_series : t -> int -> Horse_stats.Series.t option
(** Per-host series exist once sampling has started and the host has
    terminated at least one flow. *)

val total_delivered_bits : t -> float
(** Bits delivered by all flows ever — the completed total, then each
    active flow (integrated to now) by ascending id. *)

val completed_flow_count : t -> int
(** Flows that have stopped or completed since creation. *)

val recompute_count : t -> int
(** Max-min solves actually executed. With coalescing this is the
    cost metric; it can be far below {!recompute_requests}. *)

val recompute_requests : t -> int
(** Mutations that asked for a recompute (one per flow
    start/stop/reroute). [recompute_requests / recompute_count] is
    the coalescing ratio the benchmarks report. *)

val active_users : t -> int
(** Users represented by the active flow classes (sum of
    [Flow.users]). *)

val solve_work : t -> int
(** Flows that entered a solve, summed over all solves — the
    solver-work metric the delta benchmarks gate: only the flows of
    each scoped water fill count. *)

val delta_stats : t -> Fair_share.Delta.stats option
(** The incremental solver's counters; always [Some]. *)
