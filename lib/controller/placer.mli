(** Hedera's large-flow placement algorithms.

    Both take, per flow, an estimated demand and the candidate
    (equal-cost) paths, and choose one path per flow so that demands
    fit the link capacities as well as possible.

    {!global_first_fit} is the paper's primary scheduler: greedily
    assign each flow to the first candidate path with enough spare
    reservation on every hop. {!annealing} is the paper's alternative
    probabilistic search, included as an extension and exercised by
    the ablation benchmarks. *)

open Horse_topo

type request = {
  tag : int;  (** caller's flow identifier *)
  demand_bps : float;
  candidates : Spf.path list;
}

type placement = { p_tag : int; path : Spf.path option }
(** [path = None]: no candidate fits — leave the flow where it is. *)

val global_first_fit :
  capacity:(int -> float) -> request list -> placement list
(** Reservation-based greedy placement, requests processed in the
    given order (Hedera processes in detection order). *)

val annealing :
  capacity:(int -> float) ->
  rng:Horse_engine.Rng.t ->
  request list ->
  placement list
(** Minimises total link over-subscription by simulated annealing over
    the joint path assignment (1000 iterations, T₀ = 1 Gbps
    equivalent, geometric cooling 0.995). Deterministic given the
    RNG. Flows without candidates get [path = None]. *)

val oversubscription :
  capacity:(int -> float) -> (float * Spf.path) list -> float
(** Total excess demand over capacity across links, in bps — the
    annealing energy function, exposed for tests. *)
