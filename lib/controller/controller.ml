open Horse_engine
open Horse_openflow
open Horse_emulation
module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge

let packet_in_kind = Causal.kind "ctrl:packet_in" Switch.dpid_port_detail


type sw = {
  endpoint : Channel.endpoint;
  mutable sw_dpid : int;
  mutable up : bool;
}

type t = {
  proc : Process.t;
  trace : Trace.t option;
  mutable conns : sw list;  (* reversed connection order *)
  mutable next_xid : int;
  pending : (int, Ofmsg.flow_stats list -> unit) Hashtbl.t;
      (* flow-stats callbacks by request xid *)
  mutable up_hooks : (sw -> unit) list;
  mutable packet_in_hooks : (sw -> Ofmsg.packet_in -> unit) list;
  mutable port_status_hooks : (sw -> Ofmsg.port_status -> unit) list;
  m_flow_mods : Counter.t;
  m_packet_ins : Counter.t;
  g_switches : Gauge.t;
}

let create ?trace proc =
  let reg = Sched.registry (Process.scheduler proc) in
  {
    proc;
    trace;
    conns = [];
    next_xid = 1;
    pending = Hashtbl.create 64;
    up_hooks = [];
    packet_in_hooks = [];
    port_status_hooks = [];
    m_flow_mods =
      Registry.counter reg ~subsystem:"controller"
        ~help:"FLOW_MOD messages sent by the controller" "flow_mods_total";
    m_packet_ins =
      Registry.counter reg ~subsystem:"controller"
        ~help:"PACKET_IN messages received by the controller"
        "packet_ins_total";
    g_switches =
      Registry.gauge reg ~subsystem:"controller"
        ~help:"Switch connections currently up" "switches_up";
  }

let process t = t.proc

let now t = Sched.now (Process.scheduler t.proc)

let tracef t fmt =
  match t.trace with
  | Some trace -> Trace.addf trace ~at:(now t) ~label:"ctrl" fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let fresh_xid t =
  let xid = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  xid

let send sw msg = Channel.send sw.endpoint (Ofmsg.encode msg)
let send_xid sw xid msg = Channel.send sw.endpoint (Ofmsg.encode ~xid msg)

let handle t sw msg xid =
  match (msg : Ofmsg.t) with
  | Ofmsg.Hello -> ()
  | Ofmsg.Echo_request -> send_xid sw xid Ofmsg.Echo_reply
  | Ofmsg.Echo_reply -> ()
  | Ofmsg.Features_reply { dpid; _ } ->
      sw.sw_dpid <- dpid;
      if not sw.up then begin
        sw.up <- true;
        Gauge.add t.g_switches 1.0;
        tracef t "switch dpid=%d up" dpid;
        List.iter (fun f -> f sw) t.up_hooks
      end
  | Ofmsg.Packet_in pi ->
      Counter.incr t.m_packet_ins;
      Sched.protect_cause (Process.scheduler t.proc) (fun () ->
          ignore
            (Sched.cause_point (Process.scheduler t.proc) packet_in_kind
               (Causal.pair sw.sw_dpid pi.Ofmsg.in_port));
          List.iter (fun f -> f sw pi) t.packet_in_hooks)
  | Ofmsg.Port_status ps -> List.iter (fun f -> f sw ps) t.port_status_hooks
  | Ofmsg.Stats_reply reply -> (
      match Hashtbl.find_opt t.pending xid with
      | None -> tracef t "unsolicited stats reply xid=%d" xid
      | Some k -> (
          Hashtbl.remove t.pending xid;
          match reply with
          | Ofmsg.Flow_stats_rep entries -> k entries
          | Ofmsg.Port_stats_rep _ ->
              tracef t "stats reply kind mismatch xid=%d" xid))
  | Ofmsg.Barrier_reply -> (* the controller sends no barriers *) ()
  | Ofmsg.Features_request | Ofmsg.Packet_out _ | Ofmsg.Flow_mod _
  | Ofmsg.Stats_request _ | Ofmsg.Barrier_request ->
      (* switch-to-controller direction only *)
      ()

let receive t sw bytes =
  if Process.is_alive t.proc then
    match Ofmsg.decode bytes with
    | Ok (msg, xid) -> handle t sw msg xid
    | Error err -> tracef t "decode error from dpid=%d: %s" sw.sw_dpid err

let connect t endpoint =
  let sw = { endpoint; sw_dpid = -1; up = false } in
  t.conns <- sw :: t.conns;
  Channel.set_receiver endpoint (fun bytes -> receive t sw bytes);
  send sw Ofmsg.Hello;
  send_xid sw (fresh_xid t) Ofmsg.Features_request

let switches t = List.rev (List.filter (fun sw -> sw.up) t.conns)

let switch_by_dpid t dpid =
  List.find_opt (fun sw -> sw.up && sw.sw_dpid = dpid) t.conns

let dpid sw = sw.sw_dpid

let on_switch_up t f = t.up_hooks <- t.up_hooks @ [ f ]
let on_packet_in t f = t.packet_in_hooks <- t.packet_in_hooks @ [ f ]
let on_port_status t f = t.port_status_hooks <- t.port_status_hooks @ [ f ]

let send_flow_mod t sw fm =
  Counter.incr t.m_flow_mods;
  send_xid sw (fresh_xid t) (Ofmsg.Flow_mod fm)

let send_packet_out t sw po = send_xid sw (fresh_xid t) (Ofmsg.Packet_out po)

let request_flow_stats t sw k =
  let xid = fresh_xid t in
  Hashtbl.replace t.pending xid k;
  send_xid sw xid (Ofmsg.Stats_request (Ofmsg.Flow_stats_req Ofmatch.any))
