(** Top-level experiment assembly — the OCaml equivalent of Horse's
    Python API.

    An experiment bundles the hybrid scheduler, the Connection
    Manager, the fluid data plane and a trace over one topology.
    Control planes (a {!Routed_fabric}, an {!Sdn_fabric}, or anything
    hand-built from the lower layers) and traffic are attached by the
    caller; {!run} executes and returns the scheduler statistics that
    include the DES/FTI breakdown. *)

open Horse_engine
open Horse_topo
open Horse_dataplane

type t

val create :
  ?config:Sched.config ->
  ?seed:int ->
  Topology.t ->
  t
(** Default scheduler config: 1 ms FTI increment, 1 s quiet timeout.
    Default seed 42. *)

val scheduler : t -> Sched.t

(** The scheduler's telemetry registry — every subsystem attached to
    this experiment registers its metrics here; {!run} is bracketed in
    a ["run"] span. *)
val registry : t -> Horse_telemetry.Registry.t
val topology : t -> Topology.t
val cm : t -> Connection_manager.t
val fluid : t -> Fluid.t
val trace : t -> Trace.t

val at : t -> Time.t -> (unit -> unit) -> unit
(** Schedule setup work at an absolute virtual time (e.g. boot the
    control plane at t = 0). *)

val run : ?until:Time.t -> t -> Sched.stats

val permutation_pairs : t -> Topology.node array -> (Topology.node * Topology.node) array
(** The demonstration's traffic pattern: each host paired with a
    distinct other host (seeded random derangement). *)
