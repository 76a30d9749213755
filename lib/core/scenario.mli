(** The paper's demonstration, packaged: Fat-Tree data-centre traffic
    engineering with three control planes.

    One scenario run builds a [pods]-pod Fat-Tree (1 Gbps links),
    boots the chosen control plane at t = 0, starts one 1 Gbps UDP
    flow from every server to a distinct other server (seeded
    derangement), samples the aggregate rate arriving at the hosts,
    and runs the hybrid engine for the requested virtual duration.

    Used by the FIG3 and DEMO-TE benchmarks and the
    [datacenter_te] example. *)

open Horse_net
open Horse_engine
open Horse_stats

type te =
  | Bgp_ecmp  (** (i) BGP + ECMP hashing source and destination IP *)
  | Sdn_ecmp  (** (iii) SDN 5-tuple ECMP, reactive *)
  | Hedera_gff  (** (ii) Hedera with Global First Fit, 5 s polling *)
  | Hedera_annealing  (** Hedera variant with Simulated Annealing *)
  | P4_ecmp
      (** the future-work item realised: P4 pipelines programmed over
          runtime channels, in-switch hash-based ECMP *)

val te_name : te -> string
val all_te : te list
(** The demonstration's three approaches (GFF for Hedera). *)

type result = {
  te : te;
  pods : int;
  n_hosts : int;
  setup_wall_s : float;  (** building topology + control plane *)
  run_wall_s : float;  (** executing the experiment *)
  sched_stats : Sched.stats;
  aggregate : Series.t;  (** aggregate host rx rate over virtual time *)
  delivered_bits : float;
  offered_bits : float;
  converged_at : Time.t option;
      (** BGP: FIBs complete; SDN: all flows routed *)
  control_messages : int;
  control_bytes : int;
  flows_started : int;
  registry : Horse_telemetry.Registry.t;
      (** the experiment's telemetry registry, for exporters *)
  injector : Horse_faults.Injector.t option;
      (** present when a fault plan was armed: injection trace and
          per-fault reconvergence *)
  fib_fingerprint : string option;
      (** BGP scenario only: digest of every final FIB, for
          determinism checks *)
  causal : Causal.t option;
      (** the run's causal graph when [config.causal] (the default) *)
  fib_provenance : (string * Prefix.t * Causal.id) list;
      (** BGP scenario only: (node, prefix, causal id) for every
          BGP-learned FIB entry — the input to the convergence
          explainer *)
}

val run_fat_tree_te :
  ?seed:int ->
  ?sample_every:Time.t ->
  ?config:Sched.config ->
  ?flow_rate:float ->
  ?faults:Horse_faults.Plan.t ->
  pods:int ->
  te:te ->
  duration:Time.t ->
  unit ->
  result
(** Defaults: seed 42, sampling every 500 ms, 1 Gbps flows, scheduler
    defaults (1 ms increment, 1 s quiet timeout). [faults] arms a
    fault-injection plan against the chosen control plane before the
    run ({!Bgp_ecmp}: full target; SDN variants: link faults only;
    raises [Invalid_argument] for {!P4_ecmp}, which has no fault
    surface yet). *)

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
  ?config:Sched.config ->
  ?wan:Horse_topo.Wan.t ->
  ?classes:int ->
  ?users:int ->
  ?user_demand:float ->
  ?headroom:float ->
  ?sites:int ->
  ?ticks:int ->
  ?sample_every:Time.t ->
  ?duration:Time.t ->
  unit ->
  megauser_result
(** Defaults: Abilene WAN, 20 000 peak flow classes standing for
    1 000 000 users at 150 kbps each, 3 anycast sites, 48 diurnal
    ticks over a 60 s virtual day, the incremental delta solver with
    coalesced recomputes. Links are capacity-planned for
    [headroom] (default 1.1) times their expected peak load, so the
    diurnal swing stays within plan — the solver's O(1) fast path —
    until the drain event concentrates load and saturates the
    under-planned paths for real. [classes], [users] and
    [user_demand] scale the workload.
    @raise Invalid_argument on [sites] outside [1, cities],
    [classes < 1] or [ticks < 1]. *)

val pp_megauser_result : Format.formatter -> megauser_result -> unit
