open Horse_net
open Horse_engine
open Horse_emulation
module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge

type peer_state = Idle | OpenSent | OpenConfirm | Established

let pp_peer_state fmt s =
  Format.pp_print_string fmt
    (match s with
    | Idle -> "Idle"
    | OpenSent -> "OpenSent"
    | OpenConfirm -> "OpenConfirm"
    | Established -> "Established")

(* --- causal kinds ------------------------------------------------------- *)

(* An UPDATE's payload: the sender's ASN above two 15-bit counts.
   Counts stay far below 2^15 (a 4,096-byte UPDATE holds at most
   4,096 one-byte prefixes) and a 4-byte ASN fits in 32 bits. *)
let count_bits = 15
let count_max = (1 lsl count_bits) - 1

let pack_update ~asn ~wd ~nlri =
  if asn < 0 || asn > 0xFFFF_FFFF || wd < 0 || wd > count_max || nlri < 0
     || nlri > count_max
  then
    invalid_arg
      (Printf.sprintf "Speaker.pack_update: AS%d wd=%d nlri=%d" asn wd nlri);
  (asn lsl (2 * count_bits)) lor (wd lsl count_bits) lor nlri

let update_kind =
  Causal.kind "bgp:update" (fun a ->
      Printf.sprintf "from AS%d wd=%d nlri=%d" (a lsr (2 * count_bits))
        ((a lsr count_bits) land count_max)
        (a land count_max))

let decide_kind =
  Causal.kind "bgp:decide" (fun a -> Prefix.to_string (Prefix.of_bits a))

let established_kind =
  Causal.kind "bgp:session" (fun asn -> Printf.sprintf "established AS%d" asn)

let session_down_kind = Causal.text_kind "bgp:session"

type config = {
  asn : int;
  router_id : Ipv4.t;
  hold_time : Time.t;
  mrai : Time.t;
  multipath : bool;
  networks : Prefix.t list;
  processing_delay : Time.t;
  connect_retry : Time.t;
}

let default_config ~asn ~router_id =
  {
    asn;
    router_id;
    hold_time = Time.of_sec 9.0;
    mrai = Time.zero;
    multipath = true;
    networks = [];
    processing_delay = Time.of_us 100;
    connect_retry = Time.of_sec 5.0;
  }

type counters = {
  opens_sent : int;
  updates_sent : int;
  updates_received : int;
  keepalives_sent : int;
  keepalives_received : int;
  notifications_sent : int;
  decode_errors : int;
}

module Prefix_set = Set.Make (struct
  type t = Prefix.t

  let compare = Prefix.compare
end)

(* Peers sharing an [equal] export policy form one update group: the
   Adj-RIB-Out computation (split horizon aside), the export-policy
   evaluation and the serialized buffers are produced once per group
   and shared by every member, so a flush costs O(groups), not
   O(peers). *)
type peer = {
  id : int;
  remote_asn : int;
  mutable endpoint : Channel.endpoint;
  import : Policy.t;
  export : Policy.t;
  group : group;
  mutable state : peer_state;
  mutable remote_id : Ipv4.t;
  mutable negotiated_hold : Time.t;
  mutable last_rx : Time.t;
  mutable keepalive_timer : Sched.recurring option;
  mutable hold_ev : Event_queue.handle option;
      (* per-peer hold deadline, re-aimed in place on every RX *)
  mutable pending_announce : Prefix_set.t;
      (* initial table transfer, sent by [flush_peer] *)
  mutable mrai_armed : bool;
  mutable advertised : Prefix_set.t;
  mutable admin_down : bool;
}

and group = {
  gid : int;
  g_export : Policy.t;
  g_prefix_independent : bool;
  mutable members : peer list;  (* reversed insertion order *)
  mutable up_members : int;
  mutable g_pending_announce : Prefix_set.t;
  mutable g_pending_withdraw : Prefix_set.t;
  mutable g_mrai_armed : bool;
  export_memo : (int, Attr_intern.interned option) Hashtbl.t;
      (* Loc-RIB attrs uid -> post-policy interned attrs; only
         consulted when the export policy is prefix-independent *)
  packer : Msg.Packer.t;
}

(* Registry handles shared by every speaker on the same scheduler:
   message counters are aggregates labeled by direction and type, the
   RIB gauge is per-router. *)
type metrics = {
  tx_open : Counter.t;
  tx_update : Counter.t;
  tx_keepalive : Counter.t;
  tx_notification : Counter.t;
  rx_open : Counter.t;
  rx_update : Counter.t;
  rx_keepalive : Counter.t;
  rx_notification : Counter.t;
  m_decode : Counter.t;
  g_established : Gauge.t;
  g_rib : Gauge.t;
  m_updates_sent : Counter.t;
  m_prefixes_sent : Counter.t;
  m_withdrawn_sent : Counter.t;
  m_intern_hits : Counter.t;
  m_interned : Counter.t;
  m_group_flushes : Counter.t;
  m_peer_flushes : Counter.t;
}

let make_metrics reg ~router_id =
  let msg dir ty =
    Registry.counter reg ~subsystem:"bgp"
      ~help:"BGP messages by direction and type"
      ~labels:[ ("dir", dir); ("type", ty) ]
      "messages_total"
  in
  {
    tx_open = msg "tx" "open";
    tx_update = msg "tx" "update";
    tx_keepalive = msg "tx" "keepalive";
    tx_notification = msg "tx" "notification";
    rx_open = msg "rx" "open";
    rx_update = msg "rx" "update";
    rx_keepalive = msg "rx" "keepalive";
    rx_notification = msg "rx" "notification";
    m_decode =
      Registry.counter reg ~subsystem:"bgp" ~help:"Undecodable BGP messages"
        "decode_errors_total";
    g_established =
      Registry.gauge reg ~subsystem:"bgp"
        ~help:"Currently established BGP sessions" "established_sessions";
    g_rib =
      Registry.gauge reg ~subsystem:"bgp" ~help:"Loc-RIB prefixes per router"
        ~labels:[ ("router", Ipv4.to_string router_id) ]
        "rib_routes";
    m_updates_sent =
      Registry.counter reg ~subsystem:"bgp"
        ~help:"UPDATE messages sent (packing denominator)"
        "updates_sent_total";
    m_prefixes_sent =
      Registry.counter reg ~subsystem:"bgp"
        ~help:"NLRI prefixes announced across all sent UPDATEs"
        "prefixes_sent_total";
    m_withdrawn_sent =
      Registry.counter reg ~subsystem:"bgp"
        ~help:"Prefixes withdrawn across all sent UPDATEs"
        "withdrawn_prefixes_sent_total";
    m_intern_hits =
      Registry.counter reg ~subsystem:"bgp"
        ~help:"Path-attribute intern lookups resolved to an existing record"
        "attr_intern_hits_total";
    m_interned =
      Registry.counter reg ~subsystem:"bgp"
        ~help:"Distinct path-attribute records interned"
        "attrs_interned_total";
    m_group_flushes =
      Registry.counter reg ~subsystem:"bgp"
        ~help:"Update-group flushes (shared Adj-RIB-Out computations)"
        "group_flushes_total";
    m_peer_flushes =
      Registry.counter reg ~subsystem:"bgp"
        ~help:"Per-peer flushes (initial table transfers)"
        "peer_flushes_total";
  }

type t = {
  proc : Process.t;
  cfg : config;
  intern : Attr_intern.t;
  rib : Rib.t;
  trace : Trace.t option;
  m : metrics;
  mutable peers : peer list;  (* reversed insertion order *)
  mutable groups : group list;
  mutable next_peer_id : int;
  rib_hooks : (Prefix.t -> Rib.route list -> unit) Hooks.t;
  established_hooks : (int -> unit) Hooks.t;
  down_hooks : (int -> unit) Hooks.t;
  mutable started : bool;
  mutable established : int;  (* |peers in Established| *)
  mutable opens_sent : int;
  mutable updates_sent : int;
  mutable updates_received : int;
  mutable keepalives_sent : int;
  mutable keepalives_received : int;
  mutable notifications_sent : int;
  mutable decode_errors : int;
  inbox : (peer * Bytes.t * Causal.id) Queue.t;
  mutable busy : bool;
}

let sched t = Process.scheduler t.proc
let now t = Sched.now (sched t)

let tracef t fmt =
  match t.trace with
  | Some trace -> Trace.addf trace ~at:(now t) ~label:"bgp" fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let create ?trace proc cfg =
  let m =
    make_metrics (Sched.registry (Process.scheduler proc)) ~router_id:cfg.router_id
  in
  let intern =
    Attr_intern.create
      ~on_hit:(fun () -> Counter.incr m.m_intern_hits)
      ~on_miss:(fun () -> Counter.incr m.m_interned)
      ()
  in
  {
    proc;
    cfg;
    intern;
    rib = Rib.create ~intern ();
    trace;
    m;
    peers = [];
    groups = [];
    next_peer_id = 0;
    rib_hooks = Hooks.create ();
    established_hooks = Hooks.create ();
    down_hooks = Hooks.create ();
    started = false;
    established = 0;
    opens_sent = 0;
    updates_sent = 0;
    updates_received = 0;
    keepalives_sent = 0;
    keepalives_received = 0;
    notifications_sent = 0;
    decode_errors = 0;
    inbox = Queue.create ();
    busy = false;
  }

let process t = t.proc
let asn t = t.cfg.asn
let router_id t = t.cfg.router_id
let peer_list t = List.rev t.peers

let find_peer t id =
  match List.find_opt (fun p -> p.id = id) t.peers with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Speaker: unknown peer %d" id)

let peer_state t id = (find_peer t id).state
let peer_ids t = List.rev_map (fun p -> p.id) t.peers

(* O(1): maintained on FSM transitions, not recounted. *)
let established_count t = t.established
let update_group_count t = List.length t.groups

let best t prefix = Rib.best t.rib prefix
let routes t = Rib.loc_rib t.rib
let loc_rib_size t = Rib.loc_rib_size t.rib

let on_loc_rib_change t f = Hooks.add t.rib_hooks f
let on_established t f = Hooks.add t.established_hooks f
let on_session_down t f = Hooks.add t.down_hooks f

let counters t =
  {
    opens_sent = t.opens_sent;
    updates_sent = t.updates_sent;
    updates_received = t.updates_received;
    keepalives_sent = t.keepalives_sent;
    keepalives_received = t.keepalives_received;
    notifications_sent = t.notifications_sent;
    decode_errors = t.decode_errors;
  }

(* --- sending ------------------------------------------------------- *)

let count_update t ~announced ~withdrawn =
  t.updates_sent <- t.updates_sent + 1;
  Counter.incr t.m.tx_update;
  Counter.incr t.m.m_updates_sent;
  Counter.add t.m.m_prefixes_sent announced;
  Counter.add t.m.m_withdrawn_sent withdrawn

let send_msg t peer msg =
  (match msg with
  | Msg.Open _ ->
      t.opens_sent <- t.opens_sent + 1;
      Counter.incr t.m.tx_open
  | Msg.Update u ->
      let announced =
        match u.Msg.reach with None -> 0 | Some (_, nlri) -> List.length nlri
      in
      count_update t ~announced ~withdrawn:(List.length u.Msg.withdrawn)
  | Msg.Keepalive ->
      t.keepalives_sent <- t.keepalives_sent + 1;
      Counter.incr t.m.tx_keepalive
  | Msg.Notification _ ->
      t.notifications_sent <- t.notifications_sent + 1;
      Counter.incr t.m.tx_notification);
  Channel.send peer.endpoint (Msg.encode msg)

(* Pre-serialized packed UPDATEs: the byte buffers may be shared
   between the members of an update group; one scheduler event
   delivers the whole batch. *)
let send_packed t peer (msgs : Msg.packed list) =
  match msgs with
  | [] -> ()
  | msgs ->
      List.iter
        (fun (m : Msg.packed) ->
          count_update t ~announced:m.Msg.announced ~withdrawn:m.Msg.withdrawn)
        msgs;
      Channel.send_many peer.endpoint
        (List.map (fun (m : Msg.packed) -> m.Msg.bytes) msgs)

(* Export-time attribute rewrite (eBGP): prepend our ASN, set
   NEXT_HOP to ourselves, strip MED and LOCAL_PREF; COMMUNITIES are
   transitive and carried through. *)
let export_attrs t (route : Rib.route) =
  {
    Msg.origin = route.Rib.attrs.Msg.origin;
    as_path = t.cfg.asn :: route.Rib.attrs.Msg.as_path;
    next_hop = t.cfg.router_id;
    med = None;
    local_pref = None;
    communities = route.Rib.attrs.Msg.communities;
  }

(* One export computation per (group, Loc-RIB attrs): the rewrite,
   the policy evaluation and the interning of the result are memoized
   on the interned input's uid whenever the policy cannot observe the
   prefix. *)
let export_for t group prefix (first : Rib.route) =
  let eval () =
    match Policy.eval group.g_export prefix (export_attrs t first) with
    | None -> None
    | Some attrs -> Some (Attr_intern.intern t.intern attrs)
  in
  if group.g_prefix_independent then begin
    let key = first.Rib.iattrs.Attr_intern.uid in
    match Hashtbl.find_opt group.export_memo key with
    | Some cached -> cached
    | None ->
        let r = eval () in
        Hashtbl.add group.export_memo key r;
        r
  end
  else eval ()

let advertise_all set prefixes =
  List.fold_left (fun s p -> Prefix_set.add p s) set prefixes

(* Flush one peer's initial table transfer after its session comes
   up. NLRI sharing identical exported attributes group together — by
   interned uid, so grouping is O(1) per prefix. *)
let flush_peer t peer =
  peer.mrai_armed <- false;
  if Process.is_alive t.proc && peer.state = Established then begin
    Counter.incr t.m.m_peer_flushes;
    let announces = peer.pending_announce in
    peer.pending_announce <- Prefix_set.empty;
    (* Re-read the loc-rib at flush time (MRAI coalescing). *)
    let grouped : (int, Msg.attrs * Prefix.t list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let order = ref [] in
    let withdraws = ref Prefix_set.empty in
    Prefix_set.iter
      (fun prefix ->
        match Rib.best t.rib prefix with
        | [] -> withdraws := Prefix_set.add prefix !withdraws
        | (first :: _ : Rib.route list) as bests ->
            (* Split horizon: never advertise back to a source peer. *)
            let from_this_peer =
              List.exists (fun (r : Rib.route) -> r.Rib.peer = peer.id) bests
            in
            if from_this_peer then
              withdraws := Prefix_set.add prefix !withdraws
            else (
              match export_for t peer.group prefix first with
              | None -> withdraws := Prefix_set.add prefix !withdraws
              | Some ia -> (
                  let uid = ia.Attr_intern.uid in
                  match Hashtbl.find_opt grouped uid with
                  | Some (_, nlri) -> nlri := prefix :: !nlri
                  | None ->
                      Hashtbl.add grouped uid
                        (ia.Attr_intern.attrs, ref [ prefix ]);
                      order := uid :: !order)))
      announces;
    let withdraws =
      Prefix_set.filter (fun p -> Prefix_set.mem p peer.advertised) !withdraws
    in
    let withdraw_list = Prefix_set.elements withdraws in
    let groups = List.rev_map (fun uid -> Hashtbl.find grouped uid) !order in
    peer.advertised <- Prefix_set.diff peer.advertised withdraws;
    let msgs = ref [] in
    if withdraw_list <> [] then
      msgs := Msg.Packer.pack peer.group.packer ~withdrawn:withdraw_list ();
    List.iter
      (fun (attrs, nlri) ->
        let nlri = List.rev !nlri in
        msgs := !msgs @ Msg.Packer.pack peer.group.packer ~reach:(attrs, nlri) ();
        peer.advertised <- advertise_all peer.advertised nlri)
      groups;
    send_packed t peer !msgs
  end

(* Flush a whole update group: the Adj-RIB-Out computation (best
   lookup, export rewrite + policy, serialization) runs once; every
   Established member receives the shared buffers. Split horizon is
   the only per-peer part — prefixes whose best route was learned
   from a member are diverted into that member's private withdraw
   set. *)
let flush_group t group =
  group.g_mrai_armed <- false;
  if Process.is_alive t.proc && group.up_members > 0 then begin
    Counter.incr t.m.m_group_flushes;
    let announces = group.g_pending_announce in
    let withdraws = group.g_pending_withdraw in
    group.g_pending_announce <- Prefix_set.empty;
    group.g_pending_withdraw <- Prefix_set.empty;
    let members =
      List.filter (fun p -> p.state = Established) group.members
    in
    (* Buckets keyed by (exported attrs uid, excluded member ids):
       almost always the excluded set is empty or one peer. *)
    let buckets :
        (int * int list, Msg.attrs * Prefix.t list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let order = ref [] in
    let shared_withdraw = ref withdraws in
    Prefix_set.iter
      (fun prefix ->
        match Rib.best t.rib prefix with
        | [] -> shared_withdraw := Prefix_set.add prefix !shared_withdraw
        | (first :: _ : Rib.route list) as bests -> (
            let excluded =
              List.filter_map
                (fun (r : Rib.route) ->
                  if r.Rib.peer = Rib.local_peer then None
                  else if List.exists (fun m -> m.id = r.Rib.peer) members
                  then Some r.Rib.peer
                  else None)
                bests
              |> List.sort_uniq Int.compare
            in
            match export_for t group prefix first with
            | None ->
                shared_withdraw := Prefix_set.add prefix !shared_withdraw
            | Some ia -> (
                let key = (ia.Attr_intern.uid, excluded) in
                match Hashtbl.find_opt buckets key with
                | Some (_, nlri) -> nlri := prefix :: !nlri
                | None ->
                    Hashtbl.add buckets key (ia.Attr_intern.attrs, ref [ prefix ]);
                    order := key :: !order)))
      announces;
    let withdraw_list = Prefix_set.elements !shared_withdraw in
    (* Serialize once per bucket (and once for the withdraw set). *)
    let withdraw_msgs =
      if withdraw_list = [] then []
      else Msg.Packer.pack group.packer ~withdrawn:withdraw_list ()
    in
    let packed_buckets =
      List.rev_map
        (fun ((_, excluded) as key) ->
          let attrs, nlri = Hashtbl.find buckets key in
          let nlri = List.rev !nlri in
          (excluded, nlri, Msg.Packer.pack group.packer ~reach:(attrs, nlri) ()))
        !order
    in
    List.iter
      (fun member ->
        let msgs = ref withdraw_msgs in
        member.advertised <- Prefix_set.diff member.advertised !shared_withdraw;
        let horizon = ref [] in
        List.iter
          (fun (excluded, nlri, packed) ->
            if List.mem member.id excluded then
              (* Split horizon: this member sourced the best route;
                 retract anything it was previously advertised. *)
              List.iter
                (fun p ->
                  if Prefix_set.mem p member.advertised then begin
                    horizon := p :: !horizon;
                    member.advertised <- Prefix_set.remove p member.advertised
                  end)
                nlri
            else begin
              msgs := !msgs @ packed;
              member.advertised <- advertise_all member.advertised nlri
            end)
          packed_buckets;
        if !horizon <> [] then
          msgs := !msgs @ Msg.Packer.pack group.packer ~withdrawn:!horizon ();
        send_packed t member !msgs)
      members
  end

let schedule_group_flush t group =
  if not group.g_mrai_armed then begin
    group.g_mrai_armed <- true;
    if Time.equal t.cfg.mrai Time.zero then
      (* End-of-instant coalescing: every prefix refreshed while
         processing the current event batch rides one flush. *)
      Sched.defer (sched t) (fun () -> flush_group t group)
    else Process.after t.proc t.cfg.mrai (fun () -> flush_group t group)
  end

let schedule_flush t peer =
  if not peer.mrai_armed then begin
    peer.mrai_armed <- true;
    if Time.equal t.cfg.mrai Time.zero then
      Sched.defer (sched t) (fun () -> flush_peer t peer)
    else Process.after t.proc t.cfg.mrai (fun () -> flush_peer t peer)
  end

(* Dirty-track one Loc-RIB change: O(update groups). *)
let enqueue_prefix t prefix =
  List.iter
    (fun group ->
      if group.up_members > 0 then begin
        (match Rib.best t.rib prefix with
        | [] ->
            group.g_pending_withdraw <-
              Prefix_set.add prefix group.g_pending_withdraw;
            group.g_pending_announce <-
              Prefix_set.remove prefix group.g_pending_announce
        | _ :: _ ->
            group.g_pending_announce <-
              Prefix_set.add prefix group.g_pending_announce;
            group.g_pending_withdraw <-
              Prefix_set.remove prefix group.g_pending_withdraw);
        schedule_group_flush t group
      end)
    t.groups

let notify_rib_change t prefix routes =
  Hooks.iter (fun f -> f prefix routes) t.rib_hooks

let refresh_and_propagate t prefix =
  match Rib.refresh ~multipath:t.cfg.multipath t.rib prefix with
  | Rib.Unchanged -> ()
  | Rib.Changed routes ->
      Gauge.set t.m.g_rib (float_of_int (Rib.loc_rib_size t.rib));
      (* Each changed prefix is an independent decision: FIB writes and
         the UPDATEs it queues chain under this node, siblings under
         the triggering message. *)
      Sched.protect_cause (sched t) (fun () ->
          ignore
            (Sched.cause_point (sched t) decide_kind (Prefix.to_bits prefix));
          notify_rib_change t prefix routes;
          enqueue_prefix t prefix)

(* --- session management -------------------------------------------- *)

let start_keepalive t peer =
  let interval = Time.div peer.negotiated_hold 3 in
  let interval = Time.max interval (Time.of_ms 100) in
  peer.keepalive_timer <-
    Some (Process.every t.proc interval (fun () -> send_msg t peer Msg.Keepalive))

let session_established t peer =
  ignore (Sched.cause_point (sched t) established_kind peer.remote_asn);
  peer.state <- Established;
  t.established <- t.established + 1;
  peer.group.up_members <- peer.group.up_members + 1;
  Gauge.add t.m.g_established 1.0;
  tracef t "session to AS%d established" peer.remote_asn;
  start_keepalive t peer;
  Hooks.iter (fun f -> f peer.id) t.established_hooks;
  (* Initial table transfer: everything in the Loc-RIB, through the
     per-peer path (group flushes only carry deltas). *)
  List.iter
    (fun (prefix, _) ->
      peer.pending_announce <- Prefix_set.add prefix peer.pending_announce)
    (Rib.loc_rib t.rib);
  schedule_flush t peer

let session_down t peer ~reason =
  if peer.state <> Idle then begin
    ignore
      (Sched.cause_point (sched t) session_down_kind
         (Sched.text (sched t)
            (Printf.sprintf "down AS%d (%s)" peer.remote_asn reason)));
    tracef t "session to AS%d down (%s)" peer.remote_asn reason;
    if peer.state = Established then begin
      Gauge.add t.m.g_established (-1.0);
      t.established <- t.established - 1;
      peer.group.up_members <- peer.group.up_members - 1
    end;
    peer.state <- Idle;
    Option.iter Sched.cancel_recurring peer.keepalive_timer;
    peer.keepalive_timer <- None;
    (* The handle stays: the next send_open re-arms it in place. *)
    Option.iter Sched.cancel peer.hold_ev;
    peer.pending_announce <- Prefix_set.empty;
    peer.advertised <- Prefix_set.empty;
    let affected = Rib.drop_peer t.rib ~peer:peer.id in
    List.iter (refresh_and_propagate t) affected;
    Hooks.iter (fun f -> f peer.id) t.down_hooks
  end

(* Hold-timer supervision: one deadline event per peer at
   [last_rx + negotiated_hold], re-aimed in place on every received
   message (one event-queue push) instead of the shared hold/3
   sweep the speaker used to poll with — so a quiet Established
   session keeps exactly one pending event and never wakes early. *)
let rec send_open t peer =
  peer.state <- OpenSent;
  peer.last_rx <- now t;
  arm_hold t peer;
  send_msg t peer
    (Msg.Open
       {
         asn = t.cfg.asn;
         hold_time_s = int_of_float (Time.to_sec t.cfg.hold_time);
         bgp_id = t.cfg.router_id;
       })

and arm_hold t peer =
  let deadline = Time.add peer.last_rx peer.negotiated_hold in
  match peer.hold_ev with
  | Some h -> Sched.reschedule (sched t) h deadline
  | None ->
      peer.hold_ev <-
        Some (Sched.schedule_at (sched t) deadline (fun () -> hold_expired t peer))

and hold_expired t peer =
  if Process.is_alive t.proc && peer.state <> Idle then
    if Time.(Time.sub (now t) peer.last_rx >= peer.negotiated_hold) then
      match peer.state with
      | Idle -> ()
      | OpenSent ->
          (* Retry OPEN if the peer stays silent; re-arms itself. *)
          send_open t peer
      | OpenConfirm | Established ->
          send_msg t peer (Msg.Notification { code = 4; subcode = 0 });
          session_down t peer ~reason:"hold timer expired"
    else
      (* RX raced the deadline without re-aiming it (defensive; every
         receive path re-arms): aim at the true deadline. *)
      arm_hold t peer

(* --- receiving ----------------------------------------------------- *)

let handle_open t peer (o : Msg.open_msg) =
  if o.Msg.asn <> peer.remote_asn then begin
    send_msg t peer (Msg.Notification { code = 2; subcode = 2 });
    session_down t peer ~reason:"bad peer AS"
  end
  else if peer.state = Idle && (peer.admin_down || not t.started) then
    (* RFC 4271 Idle: connection attempts are refused while the
       session is administratively down. *)
    tracef t "OPEN from AS%d ignored (session admin down)" peer.remote_asn
  else begin
    (* An OPEN on an Established session means the peer restarted
       without us noticing (silent crash, hold timer not yet
       expired): retract its stale routes and fall through to the
       passive open below. *)
    if peer.state = Established then session_down t peer ~reason:"peer restarted";
    (* Passive open: an Idle speaker receiving an OPEN (a revived
       peer's ConnectRetry probing us) answers with its own OPEN
       before confirming, so the session completes without any
       fabric-level intervention. *)
    if peer.state = Idle then send_open t peer;
    peer.remote_id <- o.Msg.bgp_id;
    peer.negotiated_hold <-
      Time.min t.cfg.hold_time (Time.of_sec (float_of_int o.Msg.hold_time_s));
    send_msg t peer Msg.Keepalive;
    peer.state <- OpenConfirm
  end

let handle_update t peer (u : Msg.update) =
  t.updates_received <- t.updates_received + 1;
  Counter.incr t.m.rx_update;
  ignore
    (Sched.cause_point (sched t) update_kind
       (pack_update ~asn:peer.remote_asn
          ~wd:(List.length u.Msg.withdrawn)
          ~nlri:
            (match u.Msg.reach with
            | None -> 0
            | Some (_, nlri) -> List.length nlri)));
  let affected = ref Prefix_set.empty in
  List.iter
    (fun prefix ->
      Rib.withdraw_in t.rib ~peer:peer.id prefix;
      affected := Prefix_set.add prefix !affected)
    u.Msg.withdrawn;
  (match u.Msg.reach with
  | None -> ()
  | Some (attrs, nlri) ->
      (* AS-path loop prevention. *)
      if not (List.mem t.cfg.asn attrs.Msg.as_path) then
        List.iter
          (fun prefix ->
            match Policy.eval peer.import prefix attrs with
            | None ->
                Rib.withdraw_in t.rib ~peer:peer.id prefix;
                affected := Prefix_set.add prefix !affected
            | Some attrs ->
                Rib.set_in t.rib ~peer:peer.id ~peer_bgp_id:peer.remote_id
                  ~at:(now t) prefix attrs;
                affected := Prefix_set.add prefix !affected)
          nlri);
  Prefix_set.iter (refresh_and_propagate t) !affected

let handle_message t peer msg =
  peer.last_rx <- now t;
  (match msg with
  | Msg.Open o ->
      Counter.incr t.m.rx_open;
      handle_open t peer o
  | Msg.Keepalive -> (
      t.keepalives_received <- t.keepalives_received + 1;
      Counter.incr t.m.rx_keepalive;
      match peer.state with
      | OpenConfirm -> session_established t peer
      | Idle | OpenSent | Established -> ())
  | Msg.Update u ->
      if peer.state = Established then handle_update t peer u
  | Msg.Notification { code; subcode } ->
      Counter.incr t.m.rx_notification;
      session_down t peer
        ~reason:(Printf.sprintf "notification %d/%d received" code subcode));
  (* Every RX pushes the hold deadline out — after dispatch, so an
     OPEN's freshly negotiated hold time is what gets armed (and a
     session the message tore down stays disarmed). *)
  if peer.state <> Idle then arm_hold t peer

let process_message t peer bytes =
  match Msg.decode bytes with
  | Ok msg -> handle_message t peer msg
  | Error err ->
      t.decode_errors <- t.decode_errors + 1;
      Counter.incr t.m.m_decode;
      tracef t "decode error from AS%d: %s" peer.remote_asn err;
      send_msg t peer (Msg.Notification { code = 1; subcode = 0 });
      session_down t peer ~reason:"message decode error"

(* Received messages drain through a single serialised work queue,
   each consuming [processing_delay] of virtual CPU time — a real
   daemon is effectively single-threaded, and this is what stretches
   convergence into the multi-millisecond range the FTI mode tracks. *)
let rec process_next t =
  match Queue.take_opt t.inbox with
  | None -> t.busy <- false
  | Some (peer, bytes, cause) ->
      (* Re-attach the cause captured at delivery: without this, every
         queued message would inherit the previous message's
         provenance through the ambient state. *)
      Sched.with_cause (sched t) cause (fun () ->
          process_message t peer bytes);
      Process.after t.proc t.cfg.processing_delay (fun () -> process_next t)

let receive t peer bytes =
  if Process.is_alive t.proc then
    if Time.equal t.cfg.processing_delay Time.zero then
      process_message t peer bytes
    else begin
      Queue.add (peer, bytes, Sched.current_cause (sched t)) t.inbox;
      if not t.busy then begin
        t.busy <- true;
        Process.after t.proc t.cfg.processing_delay (fun () -> process_next t)
      end
    end

let bind_endpoint t peer endpoint =
  peer.endpoint <- endpoint;
  Channel.set_receiver endpoint (fun bytes -> receive t peer bytes);
  Channel.set_wake endpoint (fun () -> Process.wake t.proc);
  Channel.set_on_close endpoint (fun () ->
      if Process.is_alive t.proc then
        session_down t peer ~reason:"channel closed")

let find_group t export =
  match List.find_opt (fun g -> Policy.equal g.g_export export) t.groups with
  | Some g -> g
  | None ->
      let g =
        {
          gid = List.length t.groups;
          g_export = export;
          g_prefix_independent = Policy.prefix_independent export;
          members = [];
          up_members = 0;
          g_pending_announce = Prefix_set.empty;
          g_pending_withdraw = Prefix_set.empty;
          g_mrai_armed = false;
          export_memo = Hashtbl.create 32;
          packer = Msg.Packer.create ();
        }
      in
      t.groups <- g :: t.groups;
      g

let add_peer ?(import = Policy.accept_all) ?(export = Policy.accept_all) t
    ~remote_asn endpoint =
  let group = find_group t export in
  let peer =
    {
      id = t.next_peer_id;
      remote_asn;
      endpoint;
      import;
      export;
      group;
      state = Idle;
      remote_id = Ipv4.any;
      negotiated_hold = t.cfg.hold_time;
      last_rx = Time.zero;
      keepalive_timer = None;
      hold_ev = None;
      pending_announce = Prefix_set.empty;
      mrai_armed = false;
      advertised = Prefix_set.empty;
      admin_down = false;
    }
  in
  t.next_peer_id <- t.next_peer_id + 1;
  t.peers <- peer :: t.peers;
  group.members <- peer :: group.members;
  bind_endpoint t peer endpoint;
  peer.id

(* ConnectRetry (RFC 4271 §8): Idle sessions that are not admin-down
   are periodically re-initiated with a fresh OPEN, so a session torn
   down by a peer crash or reset re-establishes by itself once the
   peer answers again. (Hold supervision is per-peer deadline events —
   see [arm_hold]; there is no periodic sweep left.) *)
let retry_idle t =
  List.iter
    (fun peer ->
      if peer.state = Idle && not peer.admin_down then send_open t peer)
    t.peers

let arm_timers t =
  if Time.(t.cfg.connect_retry > Time.zero) then
    ignore (Process.every t.proc t.cfg.connect_retry (fun () -> retry_idle t))

(* A crash (Process.kill) sends nothing on the wire: sessions drop
   silently and peers only find out when their hold timers expire.
   Local state is reset so a later restart starts clean. *)
let crash_cleanup t =
  Queue.clear t.inbox;
  t.busy <- false;
  List.iter (fun peer -> session_down t peer ~reason:"process killed") t.peers

(* A restart re-arms the timers (the old ones died with the process)
   and re-initiates every non-admin-down session; peers still probing
   us via their own ConnectRetry complete the handshake passively. *)
let revive t =
  if t.started then begin
    tracef t "speaker AS%d restarted" t.cfg.asn;
    arm_timers t;
    retry_idle t
  end

let local_attrs t =
  {
    Msg.origin = Msg.Igp;
    as_path = [];
    next_hop = t.cfg.router_id;
    med = None;
    local_pref = None;
    communities = [];
  }

let announce t prefix =
  Rib.add_local t.rib ~at:(now t) prefix (local_attrs t);
  refresh_and_propagate t prefix

let withdraw_network t prefix =
  Rib.remove_local t.rib prefix;
  refresh_and_propagate t prefix

let start t =
  if not t.started then begin
    t.started <- true;
    (* The daemon's FTI scheduling quantum (paper §2): polled every
       increment while runnable. All protocol work here is
       event-driven, so the quantum dozes whenever no message is
       queued or being processed; channel delivery wakes it. *)
    Process.tick t.proc (fun () ->
        if t.busy || not (Queue.is_empty t.inbox) then Sched.Always
        else Sched.Wake_on_input);
    Process.on_kill t.proc (fun () -> crash_cleanup t);
    Process.on_restart t.proc (fun () -> revive t);
    List.iter (fun prefix -> announce t prefix) t.cfg.networks;
    List.iter (fun peer -> send_open t peer) (peer_list t);
    arm_timers t;
    tracef t "speaker AS%d started with %d peers" t.cfg.asn (List.length t.peers)
  end

let shutdown t =
  List.iter
    (fun peer ->
      peer.admin_down <- true;
      if peer.state <> Idle then begin
        if Process.is_alive t.proc then
          send_msg t peer (Msg.Notification { code = 6; subcode = 0 });
        session_down t peer ~reason:"administrative shutdown"
      end)
    t.peers

let start_peer t peer_id =
  let peer = find_peer t peer_id in
  peer.admin_down <- false;
  if t.started && peer.state = Idle && Process.is_alive t.proc then
    send_open t peer

let reset_session t peer_id =
  let peer = find_peer t peer_id in
  if peer.state <> Idle && Process.is_alive t.proc then begin
    (* Cease / administrative reset: the peer drops the session too,
       and both ConnectRetry timers bring it back. *)
    send_msg t peer (Msg.Notification { code = 6; subcode = 4 });
    session_down t peer ~reason:"administrative session reset"
  end

let replace_peer_endpoint t peer_id endpoint =
  let peer = find_peer t peer_id in
  (* Rebinding means the old transport is gone for good; a session
     still riding it (e.g. OpenSent retries into a dead link) drops
     first. *)
  if peer.state <> Idle then session_down t peer ~reason:"endpoint replaced";
  bind_endpoint t peer endpoint
