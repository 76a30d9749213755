(** Per-packet discrete-event data plane.

    This engine processes every packet individually through
    store-and-forward hops with per-link FIFO queues, transmission
    delay and tail drop — the cost model of a container-based emulator
    such as Mininet, where every packet traverses a real stack. Horse
    itself never uses this module for data traffic; it exists to power
    the Figure 3 baseline ({!Horse_baseline}) and as a cross-check
    oracle for the fluid model in tests.

    Optionally ([stack_work = true]) every hop also serializes and
    re-parses a real UDP frame through {!Horse_net.Packet}, making the
    baseline's per-packet CPU cost honest rather than a sleep. *)

open Horse_net
open Horse_engine
open Horse_topo

type t

val create :
  ?hash:(Flow_key.t -> int) ->
  ?stack_work:bool ->
  Sched.t ->
  Topology.t ->
  unit ->
  t
(** Every link has a 100-packet FIFO; [hash] selects the ECMP member
    (default 5-tuple hash); [stack_work] (default [false])
    encodes/decodes a real frame per hop. *)

val table : t -> int -> Fwd.t
(** The forwarding table of a node; program it with routes whose
    next hops are directed link ids leaving that node. *)

val inject : t -> at:int -> key:Flow_key.t -> bytes_len:int -> unit
(** Sends one packet of [bytes_len] bytes from node [at] towards
    [key.dst] at the current virtual time. *)

type stream
(** A constant-bit-rate packet stream. *)

val start_stream :
  t -> key:Flow_key.t -> at:int -> rate:float -> pkt_bytes:int -> stream
(** Emits [pkt_bytes]-byte packets from node [at] every
    [pkt_bytes * 8 / rate] seconds, starting one period from now.
    @raise Invalid_argument on non-positive rate or packet size. *)

val stop_stream : t -> stream -> unit

(** Counters (monotonic over the engine's life): *)

val rx_bytes : t -> int -> int
(** Bytes delivered to the given (host) node. *)

val total_rx_bytes : t -> int
val rx_packets : t -> int
val tx_packets : t -> int
val drops : t -> int
(** Queue-overflow plus no-route plus TTL-expired drops. *)

val hops_processed : t -> int
(** Total per-hop forwarding operations — the work metric that
    separates per-packet emulation from the fluid model. *)

val mean_delay : t -> float
(** Mean end-to-end latency of delivered packets, seconds (0 before
    the first delivery). *)

val max_delay : t -> float
