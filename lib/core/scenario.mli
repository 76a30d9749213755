(** The interpreter of {!Spec}: builds and runs one experiment.

    From the topology it derives the hosts (a fat-tree's servers; one
    host per WAN router, attached only when the spec carries traffic),
    the originate policy (edge switches their host subnets, WAN routers
    their PoP prefix, a linear chain the spec's [prefixes] /24s), the
    permutation's ports (10000/20000 upwards on the fat-tree, 7000/8000
    on a WAN) and whether flows follow FIB changes (a WAN's flows do,
    through {!Routed_core.follow}, from the convergence instant on;
    fat-tree flows keep the paths of the convergence instant).

    It boots the control plane at t = 0 (SDN launches its flows at
    10 ms, after the OpenFlow handshake), starts the traffic when the
    control plane has converged, arms the fault plan, samples the
    aggregate host rate and runs for the spec's duration. *)

open Horse_net
open Horse_engine
open Horse_stats

type te = Spec.control =
  | Bgp_ecmp | Ospf | Sdn_ecmp | Hedera_gff | Hedera_annealing | P4_ecmp

val te_name : te -> string
val all_te : te list
(** The demonstration's three approaches (GFF for Hedera). *)

type result = {
  spec : Spec.t;
  n_hosts : int;  (** hosts sending, one flow each *)
  setup_wall_s : float;  (** building topology + control plane *)
  run_wall_s : float;  (** executing the experiment *)
  sched_stats : Sched.stats;
  aggregate : Series.t;  (** aggregate host rx rate over virtual time *)
  delivered_bits : float;
  offered_bits : float;
  converged_at : Time.t option;
      (** routed fabrics: FIBs complete; P4: tables programmed; SDN:
          all flows routed *)
  control_messages : int;
  control_bytes : int;
  flows_started : int;
  unroutable : (Flow_key.t * string) list;
      (** flows with no path when the traffic started, never started *)
  stopped : (Time.t * Flow_key.t) list;
      (** started flows that were stopped, with the instant: WAN flows
          left without a route for 2 s ({!Routed_core.follow}), in
          time order, ties in start order *)
  registry : Horse_telemetry.Registry.t;
      (** the experiment's telemetry registry, for exporters *)
  injector : Horse_faults.Injector.t option;
      (** present when a fault plan was armed: injection trace and
          per-fault reconvergence *)
  fib_fingerprint : string option;
      (** routed fabrics only: digest of every final FIB, for
          determinism checks *)
  causal : Causal.t option;
      (** the run's causal graph when [config.causal] (the default) *)
  fib_provenance : (string * Prefix.t * Causal.id) list;
      (** routed fabrics only: (node, prefix, causal id) for every
          learned FIB entry — the input to the convergence explainer *)
}

val run : Spec.t -> result
(** A fault plan applies in full to the routed fabrics and as link
    faults only to the SDN ones.
    @raise Invalid_argument for a fault plan on {!P4_ecmp}, which has
    no fault surface, for traffic on a linear chain, or for an OpenFlow
    or P4 control plane on a WAN. *)

val run_fat_tree_te :
  ?seed:int ->
  ?faults:Horse_faults.Plan.t ->
  pods:int ->
  te:te ->
  duration:Time.t ->
  unit ->
  result
(** [run] on [Spec.make ~duration (Fat_tree pods) te] with the
    permutation and {!Spec.make}'s defaults. *)

val pp_topology : Format.formatter -> Spec.topology -> unit
(** ["pods=<k>"], ["linear:<n>"], ["ring:<n>"], ["random:<n>"] or
    ["abilene"]; the last three are the [wan] verb's spellings. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Million-user CDN/anycast workload}

    A compressed "day" of CDN traffic on the WAN: Zipf city masses
    feed a {!Horse_topo.Traffic_matrix.gravity} demand matrix, each
    cell is carved into flow classes (one fluid flow standing for
    thousands of users, {!Horse_dataplane.Flow.t}[.users]) served from
    the city's nearest anycast replica, classes arrive and depart with
    each city's diurnal cycle (phase-shifted by time zone), and
    halfway through the day the busiest replica drains — steering
    every class it serves to the next-nearest site in one reroute
    storm. Exercises the delta fair-share solver end to end. *)

type megauser_result = {
  mu_cities : int;
  mu_sites : int;
  mu_classes_started : int;  (** classes ever admitted *)
  mu_classes_peak : int;  (** max concurrent classes (sampled at ticks) *)
  mu_users_peak : int;  (** max concurrent users represented *)
  mu_events : int;  (** arrivals + departures + reroutes *)
  mu_reroutes : int;
  mu_solves : int;  (** rate solves actually executed *)
  mu_solve_work : int;  (** total flows entering solves *)
  mu_delta : Horse_dataplane.Fair_share.Delta.stats option;
      (** the incremental solver's counters; always [Some] *)
  mu_setup_wall_s : float;
  mu_run_wall_s : float;
  mu_delivered_bits : float;
  mu_aggregate : Series.t;
  mu_sched_stats : Sched.stats;
  mu_registry : Horse_telemetry.Registry.t;
}

val run_wan_megauser :
  ?seed:int ->
  ?wan:Horse_topo.Wan.t ->
  ?classes:int ->
  ?users:int ->
  ?user_demand:float ->
  ?headroom:float ->
  ?sites:int ->
  ?ticks:int ->
  ?duration:Time.t ->
  unit ->
  megauser_result
(** Defaults: Abilene WAN, 20 000 peak flow classes standing for
    1 000 000 users at 150 kbps each, 3 anycast sites, 48 diurnal
    ticks over a 60 s virtual day, the incremental delta solver with
    coalesced recomputes, the default scheduler configuration and a
    fluid sample every 500 ms. Links are capacity-planned for
    [headroom] (default 1.1) times their expected peak load, so the
    diurnal swing stays within plan — the solver's O(1) fast path —
    until the drain event concentrates load and saturates the
    under-planned paths for real. [classes], [users] and
    [user_demand] scale the workload. [seed] changes nothing in the
    day, which draws no random numbers. It stays because the
    megauser-day benchmark passes it, and its [golden.json] pins seed 7
    equal to seed 42.
    @raise Invalid_argument on [sites] outside [1, cities],
    [classes < 1] or [ticks < 1]. *)

val pp_megauser_result : Format.formatter -> megauser_result -> unit
