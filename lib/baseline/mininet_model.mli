(** The Figure 3 comparator: a container-based-emulator cost model.

    Mininet's cost on the demonstration workload has two components:

    - {b topology bring-up}: forking a shell per host, creating
      network namespaces and veth pairs, starting daemons. We cannot
      fork namespaces in this environment, so bring-up is an explicit
      {e model}: per-element constants (defaults measured in published
      Mininet studies and of the magnitude the paper's VM would see)
      summed and reported — never slept.
    - {b execution}: every packet of every 1 Gbps UDP flow traverses
      real network stacks. This part is {e really executed} here by
      {!Horse_dataplane.Packet_engine}: per-packet store-and-forward
      DES with optional real frame encode/decode per hop. Execution
      wall time is measured, not modeled.

    Both Horse and this baseline run the identical scenario (same
    topology, same seeded traffic permutation, same ECMP hashing), so
    the Figure 3 comparison is like for like. *)

open Horse_engine

(** Bring-up cost constants, seconds per element. *)
type creation_model = {
  per_switch : float;
  per_host : float;
  per_link : float;
  base : float;
}

val default_creation_model : creation_model
(** 0.30 s/switch, 0.12 s/host, 0.025 s/link, 1.0 s base — the
    magnitude reported for stock Mininet on a small VM. *)

val creation_seconds : creation_model -> n_switches:int -> n_hosts:int -> n_links:int -> float

type result = {
  pods : int;
  creation_modeled_s : float;  (** modeled bring-up (documented above) *)
  creation_real_s : float;  (** measured: building graph + tables *)
  exec_wall_s : float;  (** measured: running the packet engine *)
  exec_realtime_s : float;
      (** modeled wall time of real-time emulation for the full
          experiment: virtual duration × contention overhead. A
          container emulator executes in real time; overload degrades
          {e fidelity} (see [delivered_bits]), not speed. *)
  virtual_duration : Time.t;
  delivered_bits : float;
  offered_bits : float;
  packets_delivered : int;
  packets_dropped : int;
  hops_processed : int;
}

val run_fat_tree :
  ?pkt_bytes:int ->
  ?rate:float ->
  ?stack_work:bool ->
  ?seed:int ->
  ?realtime_duration:Time.t ->
  pods:int ->
  duration:Time.t ->
  unit ->
  result
(** Runs the demonstration workload (each server sends one constant
    UDP flow to another server, random derangement) through the
    packet engine on a [pods]-pod Fat-Tree with static ECMP routing.
    [duration] is the window the packet engine {e actually executes}
    (for cost and fidelity measurement); [realtime_duration] (default:
    [duration]) is the full experiment length used for the real-time
    wall-clock model: [exec_realtime_s = realtime_duration × 1.2], the
    CPU oversubscription on the paper's 4-core VM. Defaults: 1500-byte
    packets, 1 Gbps per flow, [stack_work = true], seed 42. *)

val pp_result : Format.formatter -> result -> unit
