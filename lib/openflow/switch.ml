open Horse_engine
open Horse_emulation
module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge

(* Causal kinds. A PACKET_IN's payload is [Causal.pair dpid port]. *)
let dpid_port_detail a =
  Printf.sprintf "dpid=%d port=%d" (Causal.pair_hi a) (Causal.pair_lo a)

let flow_mod_kind = Causal.kind "of:flow_mod" (Printf.sprintf "dpid=%d")
let packet_in_kind = Causal.kind "of:packet_in" dpid_port_detail

type metrics = {
  m_packet_ins : Counter.t;
  m_flow_mods : Counter.t;
  g_table : Gauge.t;
  m_tss_hits : Counter.t;
  m_lookup_misses : Counter.t;
}

(* Lookup counters carry a per-switch [dpid] label, and hits also the
   lookup stage as a [table] label, so one scheduler's worth of
   switches does not aggregate into a single opaque series; summing
   over the labels recovers the fleet-wide view.  PACKET_IN / FLOW_MOD
   totals stay unlabeled fleet aggregates. *)
let make_metrics ~dpid reg =
  let sw = [ ("dpid", string_of_int dpid) ] in
  let staged table = ("table", table) :: sw in
  {
    m_packet_ins =
      Registry.counter reg ~subsystem:"openflow"
        ~help:"PACKET_IN messages sent to the controller" "packet_ins_total";
    m_flow_mods =
      Registry.counter reg ~subsystem:"openflow"
        ~help:"FLOW_MOD messages applied by switches" "flow_mods_total";
    g_table =
      Registry.gauge reg ~subsystem:"openflow" ~labels:sw
        ~help:"Flow-table entries of one switch" "flow_table_entries";
    m_tss_hits =
      Registry.counter reg ~subsystem:"openflow"
        ~labels:(staged "classifier")
        ~help:"Lookups the tuple-space search classifier answered with a match"
        "tss_hits_total";
    m_lookup_misses =
      Registry.counter reg ~subsystem:"openflow" ~labels:sw
        ~help:"Lookups no flow entry matched in the tuple-space search"
        "lookup_misses_total";
  }

type t = {
  proc : Process.t;
  dpid : int;
  table : Flow_table.t;
  endpoint : Channel.endpoint;
  port_to_link : (int * int) list;
  trace : Trace.t option;
  m : metrics;
  mutable flow_mod_hooks : (Ofmsg.flow_mod -> unit) list;
  mutable packet_out_hooks : (Ofmsg.packet_out -> unit) list;
  mutable expired_hooks : (Flow_table.entry -> unit) list;
  mutable flow_stats_provider : (Flow_table.entry -> int * int) option;
  mutable packet_ins : int;
  mutable flow_mods : int;
  mutable started : bool;
  down_ports : (int, unit) Hashtbl.t;
  mutable expiry : Event_queue.handle option;
}

let sched t = Process.scheduler t.proc
let now t = Sched.now (sched t)

let tracef t fmt =
  match t.trace with
  | Some trace -> Trace.addf trace ~at:(now t) ~label:"ofswitch" fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

(* One expiry event per table, aimed at its earliest filed deadline
   and re-aimed in place; cancelled while no entry has a timeout. *)
let rec aim_expiry t =
  match (Flow_table.next_deadline t.table, t.expiry) with
  | Some d, Some h -> Sched.reschedule (sched t) h d
  | Some d, None ->
      t.expiry <- Some (Sched.schedule_at (sched t) d (fun () -> expire t))
  | None, Some h -> Sched.cancel h
  | None, None -> ()

(* A dead switch expires nothing; its restart hook re-aims. *)
and expire t =
  if Process.is_alive t.proc then begin
    let gone = Flow_table.expire t.table ~now:(now t) in
    if gone <> [] then
      Gauge.add t.m.g_table (-.float_of_int (List.length gone));
    List.iter (fun e -> List.iter (fun f -> f e) t.expired_hooks) gone;
    aim_expiry t
  end

let send t msg = Channel.send t.endpoint (Ofmsg.encode msg)
let send_xid t xid msg = Channel.send t.endpoint (Ofmsg.encode ~xid msg)

let handle t msg xid =
  match (msg : Ofmsg.t) with
  | Ofmsg.Hello -> ()
  | Ofmsg.Echo_request -> send_xid t xid Ofmsg.Echo_reply
  | Ofmsg.Echo_reply -> ()
  | Ofmsg.Features_request ->
      send_xid t xid
        (Ofmsg.Features_reply
           { dpid = t.dpid; n_ports = List.length t.port_to_link })
  | Ofmsg.Barrier_request -> send_xid t xid Ofmsg.Barrier_reply
  | Ofmsg.Flow_mod fm ->
      t.flow_mods <- t.flow_mods + 1;
      Counter.incr t.m.m_flow_mods;
      Sched.protect_cause (Process.scheduler t.proc) (fun () ->
          ignore (Sched.cause_point (Process.scheduler t.proc) flow_mod_kind t.dpid);
          let before = Flow_table.size t.table in
          Flow_table.apply_flow_mod t.table ~now:(now t) fm;
          Gauge.add t.m.g_table
            (float_of_int (Flow_table.size t.table - before));
          aim_expiry t;
          tracef t "flow_mod applied (table size %d)" (Flow_table.size t.table);
          List.iter (fun f -> f fm) t.flow_mod_hooks)
  | Ofmsg.Packet_out po -> List.iter (fun f -> f po) t.packet_out_hooks
  | Ofmsg.Stats_request (Ofmsg.Flow_stats_req m) ->
      let entries = Flow_table.matching_entries t.table m in
      let stats =
        List.map
          (fun (e : Flow_table.entry) ->
            let packets, bytes =
              match t.flow_stats_provider with
              | Some provider -> provider e
              | None -> (e.Flow_table.packets, e.Flow_table.bytes)
            in
            {
              Ofmsg.fs_match = e.Flow_table.match_;
              fs_priority = e.Flow_table.priority;
              fs_cookie = e.Flow_table.cookie;
              fs_packets = packets;
              fs_bytes = bytes;
              fs_duration_s =
                int_of_float
                  (Time.to_sec (Time.sub (now t) e.Flow_table.installed_at));
              fs_actions = e.Flow_table.actions;
            })
          entries
      in
      send_xid t xid (Ofmsg.Stats_reply (Ofmsg.Flow_stats_rep stats))
  | Ofmsg.Stats_request (Ofmsg.Port_stats_req port) ->
      let wanted =
        if port = 0xFFFF then List.map fst t.port_to_link else [ port ]
      in
      (* The agent keeps no port counters: every port reports zeros. *)
      let stats =
        List.map
          (fun p ->
            {
              Ofmsg.ps_port = p;
              ps_rx_packets = 0;
              ps_tx_packets = 0;
              ps_rx_bytes = 0;
              ps_tx_bytes = 0;
            })
          wanted
      in
      send_xid t xid (Ofmsg.Stats_reply (Ofmsg.Port_stats_rep stats))
  | Ofmsg.Features_reply _ | Ofmsg.Packet_in _ | Ofmsg.Stats_reply _
  | Ofmsg.Port_status _ | Ofmsg.Barrier_reply ->
      (* Controller-to-switch direction only; a controller never sends
         these. Ignore rather than fail, as a real agent would. *)
      ()

let receive t bytes =
  if Process.is_alive t.proc then
    match Ofmsg.decode bytes with
    | Ok (msg, xid) -> handle t msg xid
    | Error err -> tracef t "decode error: %s" err

let create ?trace proc ~dpid ~ports endpoint =
  let port_numbers = List.map fst ports in
  if List.length (List.sort_uniq Int.compare port_numbers) <> List.length ports
  then invalid_arg "Switch.create: duplicate port numbers";
  let t =
    {
      proc;
      dpid;
      table = Flow_table.create ();
      endpoint;
      port_to_link = ports;
      trace;
      m = make_metrics ~dpid (Sched.registry (Process.scheduler proc));
      flow_mod_hooks = [];
      packet_out_hooks = [];
      expired_hooks = [];
      flow_stats_provider = None;
      packet_ins = 0;
      flow_mods = 0;
      started = false;
      down_ports = Hashtbl.create 4;
      expiry = None;
    }
  in
  Channel.set_receiver endpoint (fun bytes -> receive t bytes);
  Process.on_restart proc (fun () -> aim_expiry t);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    send t Ofmsg.Hello
  end

let table t = t.table

let is_port_down t port = Hashtbl.mem t.down_ports port

let set_port_down t port =
  if not (Hashtbl.mem t.down_ports port) then begin
    Hashtbl.replace t.down_ports port ();
    tracef t "port %d down" port;
    send t (Ofmsg.Port_status { Ofmsg.pst_reason = 1; pst_port = port })
  end

let set_port_up t port =
  if Hashtbl.mem t.down_ports port then begin
    Hashtbl.remove t.down_ports port;
    tracef t "port %d up" port;
    send t (Ofmsg.Port_status { Ofmsg.pst_reason = 0; pst_port = port })
  end

let link_of_port t port =
  if Hashtbl.mem t.down_ports port then None
  else List.assoc_opt port t.port_to_link

let port_of_link t link =
  List.find_map
    (fun (p, l) -> if l = link then Some p else None)
    t.port_to_link

let lookup t fields =
  match Flow_table.lookup t.table fields with
  | Some _ as hit ->
      Counter.incr t.m.m_tss_hits;
      hit
  | None ->
      Counter.incr t.m.m_lookup_misses;
      None

(* OFPR_NO_MATCH: every PACKET_IN reports a table miss. *)
let no_match_reason = 0

let packet_in t ~in_port data =
  t.packet_ins <- t.packet_ins + 1;
  Counter.incr t.m.m_packet_ins;
  Sched.protect_cause (Process.scheduler t.proc) (fun () ->
      ignore
        (Sched.cause_point (Process.scheduler t.proc) packet_in_kind
           (Causal.pair t.dpid in_port));
      send t
        (Ofmsg.Packet_in
           {
             buffer_id = 0xFFFFFFFF;
             total_len = Bytes.length data;
             in_port;
             reason = no_match_reason;
             data;
           }))

let on_flow_mod t f = t.flow_mod_hooks <- t.flow_mod_hooks @ [ f ]
let on_packet_out t f = t.packet_out_hooks <- t.packet_out_hooks @ [ f ]
let on_expired t f = t.expired_hooks <- t.expired_hooks @ [ f ]
let set_flow_stats_provider t f = t.flow_stats_provider <- Some f
let packet_ins_sent t = t.packet_ins
let flow_mods_received t = t.flow_mods
