open Horse_net
open Horse_engine
open Horse_topo

type link_state = {
  mutable busy_until : Time.t;
  mutable queued : int;
}

type t = {
  sched : Sched.t;
  topo : Topology.t;
  hash : Flow_key.t -> int;
  stack_work : bool;
  tables : Fwd.t array;
  links : link_state array;
  rx_bytes_per_node : int array;
  mutable total_rx_bytes : int;
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable drops : int;
  mutable hops : int;
  mutable delay_sum : float;  (* seconds, over delivered packets *)
  mutable delay_max : float;
}

(* The per-link FIFO capacity, in packets. *)
let queue_pkts = 100

let create ?(hash = Flow_key.hash_5tuple)
    ?(stack_work = false) sched topo () =
  let n = Topology.n_nodes topo and m = Topology.n_links topo in
  {
    sched;
    topo;
    hash;
    stack_work;
    tables = Array.init n (fun _ -> Fwd.create ());
    links = Array.init m (fun _ -> { busy_until = Time.zero; queued = 0 });
    rx_bytes_per_node = Array.make n 0;
    total_rx_bytes = 0;
    rx_packets = 0;
    tx_packets = 0;
    drops = 0;
    hops = 0;
    delay_sum = 0.0;
    delay_max = 0.0;
  }

let table t node_id = t.tables.(node_id)

(* The "real stack" cost knob: build, serialize and re-parse an actual
   UDP frame of the right size, as a per-hop CPU cost proxy. *)
let churn_stack (key : Flow_key.t) bytes_len =
  let header_overhead =
    Headers.Eth.size + Headers.Ip.size + Headers.Udp.size
  in
  let payload = Bytes.make (Stdlib.max 0 (bytes_len - header_overhead)) 'x' in
  let frame =
    Packet.udp ~src_mac:(Mac.of_index 1) ~dst_mac:(Mac.of_index 2)
      ~src:key.Flow_key.src ~dst:key.Flow_key.dst
      ~src_port:key.Flow_key.src_port ~dst_port:key.Flow_key.dst_port payload
  in
  let encoded = Packet.encode frame in
  match Packet.decode encoded with
  | Ok _ -> ()
  | Error msg -> failwith ("Packet_engine: self-built frame failed: " ^ msg)

let rec arrive t ~node ~key ~bytes_len ~ttl ~sent_at =
  t.hops <- t.hops + 1;
  if t.stack_work then churn_stack key bytes_len;
  let n = Topology.node t.topo node in
  let is_destination =
    match n.Topology.ip with
    | Some ip -> Ipv4.equal ip key.Flow_key.dst
    | None -> false
  in
  if is_destination then begin
    t.rx_packets <- t.rx_packets + 1;
    t.rx_bytes_per_node.(node) <- t.rx_bytes_per_node.(node) + bytes_len;
    t.total_rx_bytes <- t.total_rx_bytes + bytes_len;
    let delay = Time.to_sec (Time.sub (Sched.now t.sched) sent_at) in
    t.delay_sum <- t.delay_sum +. delay;
    if delay > t.delay_max then t.delay_max <- delay
  end
  else if ttl = 0 then t.drops <- t.drops + 1
  else
    match Fwd.lookup_select t.tables.(node) key.Flow_key.dst ~hash:(t.hash key) with
    | None -> t.drops <- t.drops + 1
    | Some link_id -> transmit t ~link_id ~key ~bytes_len ~ttl:(ttl - 1) ~sent_at

and transmit t ~link_id ~key ~bytes_len ~ttl ~sent_at =
  let link = Topology.link t.topo link_id in
  let state = t.links.(link_id) in
  if state.queued >= queue_pkts then t.drops <- t.drops + 1
  else begin
    state.queued <- state.queued + 1;
    t.tx_packets <- t.tx_packets + 1;
    let now = Sched.now t.sched in
    let tx_time =
      Time.of_sec (float_of_int (bytes_len * 8) /. link.Topology.capacity)
    in
    let departure = Time.add (Time.max now state.busy_until) tx_time in
    state.busy_until <- departure;
    let arrival = Time.add departure link.Topology.delay in
    ignore
      (Sched.schedule_at t.sched arrival (fun () ->
           state.queued <- state.queued - 1;
           arrive t ~node:link.Topology.dst ~key ~bytes_len ~ttl ~sent_at))
  end

let inject t ~at ~key ~bytes_len =
  arrive t ~node:at ~key ~bytes_len ~ttl:64 ~sent_at:(Sched.now t.sched)

type stream = { recurring : Sched.recurring }

let start_stream t ~key ~at ~rate ~pkt_bytes =
  if rate <= 0.0 then invalid_arg "Packet_engine.start_stream: rate <= 0";
  if pkt_bytes <= 0 then invalid_arg "Packet_engine.start_stream: pkt_bytes <= 0";
  let period = Time.of_sec (float_of_int (pkt_bytes * 8) /. rate) in
  let recurring =
    Sched.every t.sched period (fun () -> inject t ~at ~key ~bytes_len:pkt_bytes)
  in
  { recurring }

let stop_stream _t s = Sched.cancel_recurring s.recurring

let rx_bytes t node_id = t.rx_bytes_per_node.(node_id)
let total_rx_bytes t = t.total_rx_bytes
let rx_packets t = t.rx_packets
let tx_packets t = t.tx_packets
let drops t = t.drops
let hops_processed t = t.hops

let mean_delay t =
  if t.rx_packets = 0 then 0.0 else t.delay_sum /. float_of_int t.rx_packets

let max_delay t = t.delay_max
