(** One experiment, described as data: topology, control plane,
    traffic, fault plan, virtual duration, seed and scheduler
    configuration. {!Scenario.run} is its only interpreter and derives
    everything else from the topology; the CLI verbs, the bench harness
    and the examples translate their options into a spec. *)

open Horse_engine

type topology =
  | Fat_tree of int  (** [k] pods of 1 Gbps links, hosts under every edge switch *)
  | Linear of { routers : int; prefixes : int }
      (** a router chain (the paper's Figure 1 at [routers = 2]) whose
          routers originate [prefixes] /24s each, [20.<node>.<i>.0/24];
          it has no hosts, so it carries no traffic *)
  | Ring of int  (** a cycle of [n >= 3] routers *)
  | Gnp of int  (** a connected G(n, 0.3) over [n] routers, from the seed *)
  | Abilene  (** the 11-router Abilene backbone *)

type control =
  | Bgp_ecmp  (** BGP + ECMP hashing source and destination IP *)
  | Ospf  (** OSPF, with its periodic hellos *)
  | Sdn_ecmp  (** reactive SDN, 5-tuple ECMP *)
  | Hedera_gff  (** Hedera with Global First Fit, 5 s polling *)
  | Hedera_annealing  (** Hedera with Simulated Annealing *)
  | P4_ecmp  (** P4 pipelines programmed over runtime channels, in-switch ECMP *)

type traffic =
  | No_traffic
  | Permutation
      (** one 1 Gbps UDP flow from every host to a distinct other host
          (seeded derangement), started once the control plane converged *)

type t = {
  topology : topology;
  control : control;
  traffic : traffic;
  faults : Horse_faults.Plan.t option;
  duration : Time.t;
  seed : int;
  config : Sched.config;
  hold_time : Time.t;
      (** BGP hold time: 9 s on the fat-tree, 30 s for [horse wan], 90 s
          for Figure 1 and the BGP-vs-OSPF comparison *)
  sample_every : Time.t;
      (** aggregate-rate sampling: 500 ms for [horse te], 1 s for
          [horse wan] and the bench plots *)
}

val make :
  ?traffic:traffic -> ?faults:Horse_faults.Plan.t -> ?seed:int -> ?config:Sched.config ->
  ?hold_time:Time.t -> ?sample_every:Time.t -> duration:Time.t -> topology -> control -> t
(** Defaults: the permutation, no faults, seed 42,
    {!Sched.default_config}, 9 s hold time, samples every 500 ms. *)
