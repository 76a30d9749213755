open Horse_net
open Horse_openflow

(* Learned-MAC entries: priority 5, idle timeout 60 s. *)
let priority = 5
let idle_timeout_s = 60

type t = {
  ctrl : Controller.t;
  learned : (int * Mac.t, int) Hashtbl.t;  (* (dpid, mac) -> port *)
  mutable floods : int;
  mutable unicasts : int;
}

let handle t sw (pi : Ofmsg.packet_in) =
  match Packet.decode pi.Ofmsg.data with
  | Error _ -> ()
  | Ok frame ->
      let eth = frame.Packet.eth in
      let dpid = Controller.dpid sw in
      (* Learn where the source lives. *)
      if not (Mac.is_multicast eth.Headers.Eth.src) then
        Hashtbl.replace t.learned (dpid, eth.Headers.Eth.src) pi.Ofmsg.in_port;
      let out_action =
        if Mac.is_multicast eth.Headers.Eth.dst then None
        else Hashtbl.find_opt t.learned (dpid, eth.Headers.Eth.dst)
      in
      (match out_action with
      | Some port ->
          t.unicasts <- t.unicasts + 1;
          Controller.send_flow_mod t.ctrl sw
            {
              Ofmsg.match_ =
                { Ofmatch.any with Ofmatch.m_eth_dst = Some eth.Headers.Eth.dst };
              cookie = 0;
              command = Ofmsg.Add;
              idle_timeout_s;
              hard_timeout_s = 0;
              priority;
              actions = [ Action.Output port ];
            };
          Controller.send_packet_out t.ctrl sw
            {
              Ofmsg.po_in_port = pi.Ofmsg.in_port;
              po_actions = [ Action.Output port ];
              po_data = pi.Ofmsg.data;
            }
      | None ->
          t.floods <- t.floods + 1;
          Controller.send_packet_out t.ctrl sw
            {
              Ofmsg.po_in_port = pi.Ofmsg.in_port;
              po_actions = [ Action.Flood ];
              po_data = pi.Ofmsg.data;
            })

let install ctrl =
  let t =
    {
      ctrl;
      learned = Hashtbl.create 64;
      floods = 0;
      unicasts = 0;
    }
  in
  Controller.on_packet_in ctrl (fun sw pi -> handle t sw pi);
  t

let lookup t ~dpid mac = Hashtbl.find_opt t.learned (dpid, mac)
let macs_learned t = Hashtbl.length t.learned
let floods t = t.floods
let unicasts t = t.unicasts
