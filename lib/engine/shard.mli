(** One shard of a partitioned experiment.

    A shard owns a private {!Sched} instance — and with it an event
    queue, poller set, telemetry registry and causal graph — plus a
    keyed RNG stream derived from the experiment seed and the shard
    name (so the stream is a function of the partition, not of how
    many domains execute it). Everything a shard owns is touched by
    exactly one domain at a time; the {!Barrier} driver is the only
    code that moves state between shards, and only while every shard
    is parked at an epoch boundary. *)

type t

val create :
  ?config:Sched.config ->
  ?registry:Horse_telemetry.Registry.t ->
  index:int ->
  name:string ->
  seed:int ->
  unit ->
  t
(** A fresh shard with its own scheduler (and private registry unless
    one is supplied). The RNG stream is
    [Rng.split_key (Rng.create seed) ("shard:" ^ name)] — stable under
    re-partitioning of {e other} shards.
    @raise Invalid_argument on a negative index. *)

val index : t -> int
val name : t -> string
val sched : t -> Sched.t
val rng : t -> Rng.t
val registry : t -> Horse_telemetry.Registry.t
