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
  t ->
  Channel.t
(** A duplex channel whose traffic is observed by the CM. The name
    appears in the FTI-transition reasons and in the trace. *)

val on_channel : t -> (Channel.t -> unit) -> unit
(** Runs the callback on every channel {!control_channel} creates from
    now on, after the CM's own observer is installed, so a callback
    can add an observer of its own ({!Channel.set_observer}). *)

val channels_created : t -> int
val messages_observed : t -> int
val bytes_observed : t -> int

val quiet_since : t -> Time.t
(** Virtual time of the last observed control message ({!Time.zero}
    before any). *)
