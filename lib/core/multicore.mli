(** The multicore engine: a {!Routed_fabric}-style BGP fabric sharded
    over a {!Horse_topo.Partition} and driven in deterministic
    lockstep by {!Horse_engine.Barrier}.

    Each shard owns a private scheduler (timing wheel, pollers,
    telemetry registry, causal graph) plus the speakers, processes and
    FIB tables of its nodes. Same-shard sessions use ordinary CM
    channels; sessions straddling the cut use split channels whose
    deliveries ride the barrier mailboxes. The shard structure is
    fixed by the partition alone — [domains] picks only the execution
    vehicle (sequential round-robin vs a domain pool), so [domains=1]
    and [domains=N] produce byte-identical fingerprints, causal
    hashes, mode timelines and fault traces. *)

open Horse_net
open Horse_engine
open Horse_topo

type t

val build :
  ?asn_base:int ->
  ?hold_time:Time.t ->
  ?mrai:Time.t ->
  ?sched_config:Sched.config ->
  ?seed:int ->
  ?quantum:Time.t ->
  ?latency:Time.t ->
  partition:Partition.t ->
  originate:(int -> Prefix.t list) ->
  Topology.t ->
  t
(** Builds speakers, sessions and static routes exactly as
    {!Routed_fabric.build}, partitioned per shard. [quantum] (default
    1 ms) is the barrier epoch; [latency] (default 1 ms) the control
    channel latency.
    @raise Invalid_argument if [latency < quantum] (conservative
    lookahead would break) or the partition is invalid for the
    topology. *)

val start : t -> unit
(** Schedules every speaker's start at t=0 on its own shard. *)

val arm_convergence_checkers : ?check_every:Time.t -> t -> unit
(** Per-shard recurring checks (default 50 ms) that latch the virtual
    time at which the shard's FIBs became complete. *)

val arm_faults : ?check_every:Time.t -> t -> Horse_faults.Plan.t -> unit
(** Splits the plan per shard ({e Partition}/{e Heal} are expanded
    statically against the session list) and arms one injector per
    shard. The plan seed is copied into every slice and streams are
    keyed per site, so every site's flap/impairment sequence is
    identical to what the unsharded injector would draw. *)

val run : ?domains:int -> until:Time.t -> t -> unit
(** Drives all shards to [until] through the barrier. *)

(** {2 Merged views} — read after {!run} returns (the domain pool has
    been joined; cross-domain reads are safe). *)

val topo : t -> Topology.t
val n_shards : t -> int
val barrier : t -> Barrier.t
val shard_sched : t -> int -> Sched.t
val table : t -> int -> Horse_dataplane.Fwd.t
val all_prefixes : t -> Prefix.t list
val speakers : t -> (int * Horse_bgp.Speaker.t) list
val sessions_expected : t -> int
val sessions_established : t -> int
val fib_routes_installed : t -> int
val is_converged : t -> bool

val converged_at : t -> Time.t option
(** Max of the per-shard latch times; [None] until every shard has
    latched. *)

val fib_fingerprint : t -> string
(** Byte-compatible with {!Routed_fabric.fib_fingerprint}: the digest
    input is the same node-id-ordered table dump. *)

val causal_hash : t -> string
(** Digest over the per-shard causal hashes in shard order ("-" for a
    shard with tracing off). *)

val mode_timelines : t -> (int * string * string * string) list array
(** Per shard: [(at_us, from, to, reason)] per transition — wall time
    never enters, so timelines are replay-comparable. *)

val fault_traces : t -> string list array
val faults_injected : t -> int
val faults_skipped : t -> int
val control_messages : t -> int
val control_bytes : t -> int

val merged_registry : t -> Horse_telemetry.Registry.t
(** A fresh registry with every shard's metrics merged in
    ({!Horse_telemetry.Registry.merge_into}): counters summed, gauges
    maxed, histograms bucket-merged. *)

val fib_provenance : t -> (string * Prefix.t * int * Causal.id) list
(** [(node, prefix, shard, cause)] sorted by (node name, prefix); the
    cause id resolves against [shard]'s causal graph. *)

(** {2 The canned scenario} *)

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
  fib_fingerprint : string;
  causal_hash : string;
  timelines : (int * string * string * string) list array;
  fault_trace : string list array;
  faults_injected : int;
  faults_skipped : int;
  control_messages : int;
  control_bytes : int;
  fib_writes : int;
  sessions_up : int;
  sessions_total : int;
  registry : Horse_telemetry.Registry.t;
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
    {!Partition.fat_tree_pods} (default: one shard per pod) and run on
    [domains] domains. *)
