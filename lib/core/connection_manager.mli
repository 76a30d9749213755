(** The Connection Manager (paper §2, Figure 2): "the bridge between
    the emulation and simulation. The CM has visibility to control
    plane packets and is responsible for sending events that trigger a
    change to the FTI mode."

    Every control-plane channel in an experiment is created through
    the CM, which installs an observer so that each message sent —
    BGP or OpenFlow, in either direction — reports control activity to
    the hybrid scheduler (forcing/holding FTI mode) and bumps the
    CM's counters. *)

open Horse_engine
open Horse_emulation

type t

val create : Sched.t -> Trace.t -> t

val scheduler : t -> Sched.t
val trace : t -> Trace.t

val control_channel :
  ?latency:Time.t ->
  ?name:string ->
  ?owner_a:Process.t ->
  ?owner_b:Process.t ->
  t ->
  Channel.t
(** A duplex channel whose traffic is observed by the CM. The name
    appears in the FTI-transition reasons and in the trace. When the
    owning processes are known, pass them: the CM then wires each
    side's delivery to [Process.wake], so processes dozing under the
    scheduler fast path get their poll quantum back the moment input
    arrives for them. *)

val channels_created : t -> int
val messages_observed : t -> int
val bytes_observed : t -> int

val quiet_since : t -> Time.t
(** Virtual time of the last observed control message ({!Time.zero}
    before any). *)
