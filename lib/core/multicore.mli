(** The multicore engine: the {!Routed_fabric} BGP fat-tree sharded
    over a {!Horse_topo.Partition} and driven in deterministic
    lockstep by {!Horse_engine.Barrier}.

    Each shard owns a private scheduler (event queue, pollers,
    telemetry registry, causal graph) and a Connection Manager;
    {!Routed_fabric.build_sharded} places the speakers, processes and
    FIB writes of each node on its shard. This module creates the
    shards and the barrier, splits the fault plan per shard, runs the
    barrier and merges the per-shard results. The shard structure is
    fixed by the partition alone — [domains] picks only the execution
    vehicle (sequential round-robin vs a domain pool), so [domains=1]
    and [domains=N] produce byte-identical fingerprints, causal
    hashes, mode timelines and fault traces. With one shard the run
    is the unsharded fabric's, byte for byte. *)

open Horse_engine

type result = {
  pods : int;
  domains : int;
  shards : int;
  partition_name : string;
  setup_wall_s : float;
  run_wall_s : float;
  epochs : int;
  jumps : int;
  cross_messages : int;
  converged_at : Time.t option;
      (** The latest of the per-shard instants at which the shard's
          FIBs became complete; [None] if some shard never got there. *)
  fib_fingerprint : string;
      (** {!Routed_fabric.fib_fingerprint} of the sharded fabric. *)
  causal_hash : string;
      (** Digest over the per-shard causal hashes in shard order, one
          per line ("-" for a shard with tracing off). *)
  timelines : (int * string * string * string) list array;
      (** Per shard: [(at_us, from, to, reason)] per transition — wall
          time never enters, so timelines are replay-comparable. *)
  fault_trace : string list array;  (** Per shard injector trace labels. *)
  faults_injected : int;
  faults_skipped : int;
  control_messages : int;
  control_bytes : int;
  fib_writes : int;
  sessions_up : int;
  sessions_total : int;
  registry : Horse_telemetry.Registry.t;
      (** Every shard's metrics merged
          ({!Horse_telemetry.Registry.merge_into}): counters summed,
          gauges maxed, histograms bucket-merged. *)
}

val run_fat_tree :
  ?seed:int ->
  ?sched_config:Sched.config ->
  ?shards:int ->
  ?domains:int ->
  ?faults:Horse_faults.Plan.t ->
  pods:int ->
  duration:Time.t ->
  unit ->
  result
(** The BGP fat-tree convergence experiment (the [Bgp_ecmp] scenario's
    control plane, without the fluid data plane), sharded with
    {!Horse_topo.Partition.fat_tree_pods} (default: one shard per pod)
    and run on [domains] domains. A fault plan is split per shard
    ({e Partition}/{e Heal} are expanded statically against the
    session list) and armed as one injector per shard. The plan seed
    is copied into every slice and streams are keyed per site, so
    every site's flap/impairment sequence is identical to what the
    unsharded injector would draw. *)
