open Horse_engine
open Horse_emulation
module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge

type t = {
  sched : Sched.t;
  cm_trace : Trace.t;
  m_channels : Counter.t;
  m_messages : Counter.t;
  m_bytes : Counter.t;
  g_last_activity : Gauge.t;
  mutable last_activity : Time.t;
  channel_hooks : (Channel.t -> unit) Hooks.t;
}

let create sched trace =
  let reg = Sched.registry sched in
  let counter = Registry.counter reg ~subsystem:"cm" in
  {
    sched;
    cm_trace = trace;
    m_channels =
      counter ~help:"Control channels created" "channels_created_total";
    m_messages =
      counter ~help:"Control-plane messages observed" "messages_total";
    m_bytes = counter ~help:"Control-plane bytes observed" "bytes_total";
    g_last_activity =
      Registry.gauge reg ~subsystem:"cm"
        ~help:"Virtual time of the last observed control message, seconds"
        "last_activity_seconds";
    last_activity = Time.zero;
    channel_hooks = Hooks.create ();
  }

let scheduler t = t.sched
let trace t = t.cm_trace

let control_channel ?latency ?(name = "control") t =
  let channel = Channel.create t.sched ?latency () in
  Counter.incr t.m_channels;
  Trace.addf t.cm_trace ~at:(Sched.now t.sched) ~label:"cm"
    "channel %d created (%s)" (Counter.value t.m_channels) name;
  Channel.set_observer channel (fun _dir msg ->
      Counter.incr t.m_messages;
      Counter.add t.m_bytes (Bytes.length msg);
      t.last_activity <- Sched.now t.sched;
      Gauge.set t.g_last_activity (Time.to_sec t.last_activity);
      Sched.control_activity ~reason:name t.sched);
  Hooks.iter (fun f -> f channel) t.channel_hooks;
  channel

let on_channel t f = Hooks.add t.channel_hooks f

let channels_created t = Counter.value t.m_channels
let messages_observed t = Counter.value t.m_messages
let bytes_observed t = Counter.value t.m_bytes
let quiet_since t = t.last_activity
