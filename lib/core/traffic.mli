(** Workload generation: Poisson flow arrivals with configurable size
    distributions, and flow-completion-time (FCT) measurement.

    The demonstration uses static 1 Gbps flows, but evaluating TE
    schemes properly (as Hedera's own paper does) needs dynamic
    workloads: flows of finite size arriving over time, measured by
    how long they take to finish. This module drives
    {!Horse_dataplane.Fluid.start_finite_flow} from a seeded Poisson
    process and records every completion. *)

open Horse_net
open Horse_engine
open Horse_topo

(** Flow size distributions, in bits. *)
type size_dist =
  | Fixed of float
  | Uniform of float * float
  | Pareto of { scale : float; shape : float }
      (** heavy-tailed; mean = scale × shape / (shape − 1) for
          shape > 1 *)
  | Mix of (float * size_dist) list
      (** weighted mixture; weights need not sum to 1 *)

val sample_size : Rng.t -> size_dist -> float

val websearch : size_dist
(** A web-search-like mix (the DCTCP workload's shape): mostly short
    queries with a heavy tail of large background transfers. Mean
    ≈ 13 Mbit. *)

type record = {
  key : Flow_key.t;
  size_bits : float;
  started : Time.t;
  completed : Time.t;
  fct : Time.t;
}

type t

val poisson :
  exp:Experiment.t ->
  hosts:Topology.node array ->
  route:(Flow_key.t -> (Spf.path, string) result) ->
  arrival_rate:float ->
  sizes:size_dist ->
  until:Time.t ->
  unit ->
  t
(** Schedules flow arrivals from now until [until] (virtual):
    exponential inter-arrivals at [arrival_rate] flows/second in
    aggregate, uniformly random distinct (src, dst) host pairs, unique
    ports, sizes from [sizes]. Each flow is routed with [route] at its
    arrival instant and completes through the fluid engine at a peak
    rate of 1 Gbps. The generator's RNG is independent of the
    experiment's (seed 4242). *)

val arrivals : t -> int
val completions : t -> int
val unroutable : t -> int
val in_flight : t -> int

val records : t -> record list
(** Completion order. *)

val fct_seconds : t -> float list

val slowdowns : t -> float list
(** Per-flow FCT divided by its ideal FCT (size / demand) — 1.0 is
    perfect. *)
