open Horse_net
open Horse_engine
open Horse_emulation
module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge

type peer_state = Idle | OpenSent | OpenConfirm | Established


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

module Uid_tbl = Hashtbl.Make (Int)

(* A growable vector of prefix ids. *)
module Ids = struct
  type t = { mutable ids : int array; mutable len : int }

  let create () = { ids = Array.make 16 0; len = 0 }

  let push v id =
    if v.len = Array.length v.ids then begin
      let ids = Array.make (2 * v.len) 0 in
      Array.blit v.ids 0 ids 0 v.len;
      v.ids <- ids
    end;
    v.ids.(v.len) <- id;
    v.len <- v.len + 1

  (* Empties [v] and returns what it held, sorted by [cmp]. *)
  let take_sorted cmp v =
    let ids = Array.sub v.ids 0 v.len in
    v.len <- 0;
    Array.sort cmp ids;
    ids
end

(* Per-id flag bytes, grown on demand; bytes past the end read 0. *)
let flag b id = if id < Bytes.length b then Bytes.get_uint8 b id else 0

let with_flag b id v =
  let b =
    if id < Bytes.length b then b
    else begin
      let b' = Bytes.make (max (id + 1) (2 * Bytes.length b)) '\000' in
      Bytes.blit b 0 b' 0 (Bytes.length b);
      b'
    end
  in
  Bytes.set_uint8 b id v;
  b

(* A group's pending state for one id; the last write wins. *)
let state_none = 0
let state_announce = 1
let state_withdraw = 2

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
  mutable pending_announce : int list;
      (* initial table transfer, ids in prefix order, sent by
         [flush_peer] *)
  mutable mrai_armed : bool;
  mutable adj_out : int array;
      (* per id: 1 + the uid of the record last announced to this peer,
         0 if it holds no route from us; grown on demand *)
  mutable admin_down : bool;
}

and group = {
  memo_key : int;  (* this group's key in the records' export memos *)
  g_export : Policy.t;
  g_prefix_independent : bool;
  mutable members : peer list;  (* reversed insertion order *)
  mutable up_members : int;
  g_pending : Ids.t;  (* ids with a pending state, unsorted *)
  mutable g_state : Bytes.t;  (* per id: a [state_*] value *)
  mutable g_mrai_armed : bool;
  packer : Msg.Packer.t;
}

(* The NLRI of one flush that share exported attributes and, in a group
   flush, the set of members split horizon excludes. A bucket holds its
   record until the flush ends ([release_buckets]). *)
type bucket = {
  b_iattrs : Attr_intern.interned;
  b_slot : int;  (* the slot value of a member that holds [b_iattrs] *)
  b_excluded : int list;  (* sorted member ids *)
  mutable b_ids : int list;  (* reversed until [in_order] *)
  mutable b_len : int;
  mutable b_packed : Msg.packed list;  (* every id's UPDATEs, once packed *)
}

(* Registry handles shared by every speaker of a fabric, looked up
   once per fabric: message counters are aggregates labeled by
   direction and type. The per-router RIB gauge sits on the speaker. *)
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
  m_updates_sent : Counter.t;
  m_prefixes_sent : Counter.t;
  m_withdrawn_sent : Counter.t;
  m_group_flushes : Counter.t;
  m_peer_flushes : Counter.t;
  m_suppressed_announce : Counter.t;
  m_suppressed_withdraw : Counter.t;
}

let make_metrics reg =
  let msg dir ty =
    Registry.counter reg ~subsystem:"bgp"
      ~help:"BGP messages by direction and type"
      ~labels:[ ("dir", dir); ("type", ty) ]
      "messages_total"
  in
  let suppressed kind =
    Registry.counter reg ~subsystem:"bgp"
      ~help:
        "Prefixes not sent to a peer because its Adj-RIB-Out already \
         matched: announcements of the record it holds, withdrawals of \
         prefixes it does not hold"
      ~labels:[ ("kind", kind) ]
      "updates_suppressed_total"
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
    m_group_flushes =
      Registry.counter reg ~subsystem:"bgp"
        ~help:"Update-group flushes (shared Adj-RIB-Out computations)"
        "group_flushes_total";
    m_peer_flushes =
      Registry.counter reg ~subsystem:"bgp"
        ~help:"Per-peer flushes (initial table transfers)"
        "peer_flushes_total";
    m_suppressed_announce = suppressed "announce";
    m_suppressed_withdraw = suppressed "withdraw";
  }

type t = {
  proc : Process.t;
  cfg : config;
  intern : Attr_intern.t;
  rib : Rib.t;
  trace : Trace.t option;
  m : metrics;
  g_rib : Gauge.t;  (* Loc-RIB prefixes of this router *)
  mutable peers : peer array;  (* by id, which is insertion order *)
  mutable groups : group list;
  rib_hooks : (Prefix.t -> Rib.route list -> unit) Hooks.t;
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
  buckets : bucket list Uid_tbl.t;
      (* one flush's buckets by exported uid; empty between flushes *)
  affected : Ids.t;  (* ids an UPDATE touched *)
  mutable marks : int array;  (* per id: the last [stamp] that touched it *)
  mutable stamp : int;
}

let sched t = Process.scheduler t.proc
let now t = Sched.now (sched t)

let tracef t fmt =
  match t.trace with
  | Some trace -> Trace.addf trace ~at:(now t) ~label:"bgp" fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

type attr_table = { table : Attr_intern.t; shared : metrics }

let attr_table sched =
  let reg = Sched.registry sched in
  let hits =
    Registry.counter reg ~subsystem:"bgp"
      ~help:"Path-attribute intern lookups resolved to an existing record"
      "attr_intern_hits_total"
  in
  let interned =
    Registry.counter reg ~subsystem:"bgp"
      ~help:"Path-attribute records inserted into the attribute table"
      "attrs_interned_total"
  in
  let live =
    Registry.gauge reg ~subsystem:"bgp"
      ~help:"Path-attribute records held in the attribute table" "attrs_live"
  in
  let table =
    Attr_intern.create
      ~on_hit:(fun () -> Counter.incr hits)
      ~on_miss:(fun () ->
        Counter.incr interned;
        Gauge.add live 1.0)
      ~on_free:(fun () -> Gauge.add live (-1.0))
      ()
  in
  { table; shared = make_metrics reg }

let create ~intern ?trace proc cfg =
  let reg = Sched.registry (Process.scheduler proc) in
  {
    proc;
    cfg;
    intern = intern.table;
    rib = Rib.create intern.table;
    trace;
    m = intern.shared;
    g_rib =
      Registry.gauge reg ~subsystem:"bgp" ~help:"Loc-RIB prefixes per router"
        ~labels:[ ("router", Ipv4.to_string cfg.router_id) ]
        "rib_routes";
    peers = [||];
    groups = [];
    rib_hooks = Hooks.create ();
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
    buckets = Uid_tbl.create 16;
    affected = Ids.create ();
    marks = [||];
    stamp = 0;
  }

let asn t = t.cfg.asn
let rib t = t.rib

let find_peer t id =
  if id >= 0 && id < Array.length t.peers then t.peers.(id)
  else invalid_arg (Printf.sprintf "Speaker: unknown peer %d" id)

(* Newest peer first: the order that session teardown, retries and
   shutdown walk the peers in. *)
let iter_peers_newest_first f t =
  for id = Array.length t.peers - 1 downto 0 do
    f t.peers.(id)
  done

let peer_state t id = (find_peer t id).state

(* O(1): maintained on FSM transitions, not recounted. *)
let established_count t = t.established
let update_group_count t = List.length t.groups

let best t prefix = Rib.best t.rib prefix
let routes t = Rib.loc_rib t.rib

let on_loc_rib_change t f = Hooks.add t.rib_hooks f

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

let export t group prefix (first : Rib.route) =
  match Policy.eval group.g_export prefix (export_attrs t first) with
  | None -> None
  | Some attrs -> Some (Attr_intern.intern t.intern attrs)

(* One export computation per (group, Loc-RIB attrs): the rewrite,
   the policy evaluation and the interning of the result are memoized
   on the interned input itself whenever the policy cannot observe the
   prefix. A memo entry holds its output until the input is freed;
   otherwise the output's only holder is the flush bucket it lands
   in. *)
let export_for t group prefix (first : Rib.route) =
  if group.g_prefix_independent then begin
    let input = first.Rib.iattrs in
    match Attr_intern.find_memo input group.memo_key with
    | out -> out
    | exception Not_found ->
        let out = export t group prefix first in
        Attr_intern.add_memo input group.memo_key out;
        out
  end
  else export t group prefix first

(* --- Adj-RIB-Out ------------------------------------------------------ *)

(* A peer's Adj-RIB-Out slot for [id]: 1 + the uid of the record last
   announced to it, 0 if it holds no route from us. A slot keeps the
   uid only, so it holds no record alive; uids are never reused, so a
   record freed and interned again under a new uid costs at most one
   redundant announcement, never a missing one. *)
let slot peer id =
  if id < Array.length peer.adj_out then peer.adj_out.(id) else 0

let set_slot peer id v =
  if id >= Array.length peer.adj_out then begin
    let a = Array.make (max (id + 1) (2 * Array.length peer.adj_out)) 0 in
    Array.blit peer.adj_out 0 a 0 (Array.length peer.adj_out);
    peer.adj_out <- a
  end;
  peer.adj_out.(id) <- v

let rec set_slots peer v = function
  | [] -> ()
  | id :: rest ->
      set_slot peer id v;
      set_slots peer v rest

let rec clear_slots peer = function
  | [] -> ()
  | id :: rest ->
      if id < Array.length peer.adj_out then peer.adj_out.(id) <- 0;
      clear_slots peer rest

(* [n] plus how many of [ids] the peer's slots do not read [v]. With
   [v] = 0 that is how many it holds. *)
let rec count_unlike peer v n = function
  | [] -> n
  | id :: rest ->
      count_unlike peer v (if slot peer id <> v then n + 1 else n) rest

(* The ids of [ids] whose slot does not read [v], in order. *)
let rec unlike peer v = function
  | [] -> []
  | id :: rest ->
      if slot peer id <> v then id :: unlike peer v rest else unlike peer v rest

let prefixes t ids = List.map (Rib.prefix_of_id t.rib) ids

let rec find_bucket excluded = function
  | [] -> raise_notrace Not_found
  | b :: rest ->
      if List.equal Int.equal b.b_excluded excluded then b
      else find_bucket excluded rest

(* Adds [id] to the bucket of ([ia], [excluded]), creating it (and
   prepending it to [order]) on first use. *)
let add_to_bucket t order (ia : Attr_intern.interned) excluded id =
  let uid = ia.Attr_intern.uid in
  let same_uid =
    match Uid_tbl.find t.buckets uid with l -> l | exception Not_found -> []
  in
  match find_bucket excluded same_uid with
  | b ->
      b.b_ids <- id :: b.b_ids;
      b.b_len <- b.b_len + 1
  | exception Not_found ->
      Attr_intern.retain ia;
      let b =
        {
          b_iattrs = ia;
          b_slot = uid + 1;
          b_excluded = excluded;
          b_ids = [ id ];
          b_len = 1;
          b_packed = [];
        }
      in
      Uid_tbl.replace t.buckets uid (b :: same_uid);
      order := b :: !order

(* The buckets of a reversed [order], in creation order and each with
   its ids in order. Empties the speaker's bucket table. *)
let in_order t order =
  Uid_tbl.clear t.buckets;
  List.rev_map
    (fun b ->
      b.b_ids <- List.rev b.b_ids;
      b)
    order

let rec release_buckets intern = function
  | [] -> ()
  | b :: rest ->
      Attr_intern.release intern b.b_iattrs;
      release_buckets intern rest

let pack_reach t packer b ids =
  Msg.Packer.pack packer
    ~reach:(b.b_iattrs.Attr_intern.attrs, prefixes t ids)
    ()

let pack_withdrawn t packer ids =
  Msg.Packer.pack packer ~withdrawn:(prefixes t ids) ()

(* A bucket is packed once, the first time a peer needs all of it. *)
let bucket_packed t packer b =
  if b.b_packed = [] then b.b_packed <- pack_reach t packer b b.b_ids;
  b.b_packed

(* Counts [msgs] as sent and pushes their buffers onto [acc], a batch
   in reverse. *)
let rec push_packed t acc = function
  | [] -> acc
  | (m : Msg.packed) :: rest ->
      count_update t ~announced:m.Msg.announced ~withdrawn:m.Msg.withdrawn;
      push_packed t (m.Msg.bytes :: acc) rest

(* One scheduler event delivers a batch built in reverse. *)
let send_batch peer = function
  | [] -> ()
  | rev -> Channel.send_many peer.endpoint (List.rev rev)

(* Announces to [peer] the NLRI of [b] that its Adj-RIB-Out does not
   already hold with [b]'s record: through the bucket's shared buffers
   when it needs them all, through a pack of its own otherwise. *)
let announce_to t packer peer acc b =
  let need = count_unlike peer b.b_slot 0 b.b_ids in
  if need < b.b_len then Counter.add t.m.m_suppressed_announce (b.b_len - need);
  if need = 0 then acc
  else begin
    let msgs =
      if need = b.b_len then bucket_packed t packer b
      else pack_reach t packer b (unlike peer b.b_slot b.b_ids)
    in
    set_slots peer b.b_slot b.b_ids;
    push_packed t acc msgs
  end

(* [announce_to] every bucket that does not exclude [member]. *)
let rec announce_all t packer member acc = function
  | [] -> acc
  | b :: rest ->
      let acc =
        if List.mem member.id b.b_excluded then acc
        else announce_to t packer member acc b
      in
      announce_all t packer member acc rest

(* Flush one peer's initial table transfer after its session comes
   up. NLRI sharing identical exported attributes group together — by
   interned uid, so grouping is O(1) per prefix. *)
let flush_peer t peer =
  peer.mrai_armed <- false;
  if Process.is_alive t.proc && peer.state = Established then begin
    Counter.incr t.m.m_peer_flushes;
    let announces = peer.pending_announce in
    peer.pending_announce <- [];
    (* Re-read the loc-rib at flush time (MRAI coalescing). *)
    let order = ref [] in
    let withdraws = ref [] in
    List.iter
      (fun id ->
        match Rib.best_id t.rib id with
        | [] -> withdraws := id :: !withdraws
        | (first :: _ : Rib.route list) as bests -> (
            (* Split horizon: never advertise back to a source peer. *)
            if List.exists (fun (r : Rib.route) -> r.Rib.peer = peer.id) bests
            then withdraws := id :: !withdraws
            else
              match
                export_for t peer.group (Rib.prefix_of_id t.rib id) first
              with
              | None -> withdraws := id :: !withdraws
              | Some ia -> add_to_bucket t order ia [] id))
      announces;
    (* [announces] is in prefix order, so each list below is too. *)
    let buckets = in_order t !order in
    let packer = peer.group.packer in
    let withdraws = unlike peer 0 (List.rev !withdraws) in
    clear_slots peer withdraws;
    let acc =
      if withdraws = [] then []
      else push_packed t [] (pack_withdrawn t packer withdraws)
    in
    let acc = announce_all t packer peer acc buckets in
    release_buckets t.intern buckets;
    send_batch peer acc
  end

(* Split horizon: the Established members of [group] that sourced one
   of [bests], added to the sorted, duplicate-free [acc]. *)
let rec horizon_of t group acc = function
  | [] -> acc
  | (r : Rib.route) :: rest ->
      let p = r.Rib.peer in
      let acc =
        if p = Rib.local_peer then acc
        else
          let peer = t.peers.(p) in
          if peer.group == group && peer.state = Established then
            insert_id p acc
          else acc
      in
      horizon_of t group acc rest

and insert_id x = function
  | [] -> [ x ]
  | y :: rest as l ->
      if x < y then x :: l else if x = y then l else y :: insert_id x rest

(* The ids [member] holds in the buckets that exclude it, in reverse,
   with their slots cleared: what split horizon retracts. *)
let rec retract_all member acc = function
  | [] -> acc
  | b :: rest ->
      let acc =
        if List.mem member.id b.b_excluded then retract member acc b.b_ids
        else acc
      in
      retract_all member acc rest

and retract member acc = function
  | [] -> acc
  | id :: rest ->
      if slot member id <> 0 then begin
        member.adj_out.(id) <- 0;
        retract member (id :: acc) rest
      end
      else retract member acc rest

(* Flush a whole update group: the Adj-RIB-Out computation (best
   lookup, export rewrite + policy, serialization) runs once per
   group, and each Established member is sent only what changes its
   own Adj-RIB-Out. A bucket is packed once and its buffers are shared
   by every member that needs all of it; a member that needs part of a
   bucket gets a pack of its own. Split horizon diverts prefixes whose
   best route was learned from a member into that member's private
   retractions. The pending ids are sorted once, so the withdrawals
   and each bucket's ids are in prefix order. *)
let flush_group t group =
  group.g_mrai_armed <- false;
  if Process.is_alive t.proc && group.up_members > 0 then begin
    Counter.incr t.m.m_group_flushes;
    let pending = Ids.take_sorted (Rib.compare_ids t.rib) group.g_pending in
    (* Buckets keyed by (exported attrs uid, excluded member ids):
       almost always the excluded set is empty or one peer. *)
    let order = ref [] in
    let withdraws = ref [] in
    Array.iter
      (fun id ->
        let state = flag group.g_state id in
        Bytes.set_uint8 group.g_state id state_none;
        if state = state_withdraw then withdraws := id :: !withdraws
        else
          match Rib.best_id t.rib id with
          | [] -> withdraws := id :: !withdraws
          | (first :: _ : Rib.route list) as bests -> (
              match export_for t group (Rib.prefix_of_id t.rib id) first with
              | None -> withdraws := id :: !withdraws
              | Some ia ->
                  add_to_bucket t order ia (horizon_of t group [] bests) id))
      pending;
    let buckets = in_order t !order in
    let withdraws = List.rev !withdraws in
    let n_withdraws = List.length withdraws in
    let packer = group.packer in
    (* Packed on first use, shared by every member that holds them all. *)
    let withdrawn_packed = ref [] in
    List.iter
      (fun member ->
        if member.state = Established then begin
          let held = count_unlike member 0 0 withdraws in
          if held < n_withdraws then
            Counter.add t.m.m_suppressed_withdraw (n_withdraws - held);
          let acc =
            if held = 0 then []
            else if held = n_withdraws then begin
              if !withdrawn_packed = [] then
                withdrawn_packed := pack_withdrawn t packer withdraws;
              push_packed t [] !withdrawn_packed
            end
            else
              push_packed t []
                (pack_withdrawn t packer (unlike member 0 withdraws))
          in
          clear_slots member withdraws;
          let acc = announce_all t packer member acc buckets in
          let acc =
            match retract_all member [] buckets with
            | [] -> acc
            | horizon ->
                push_packed t acc (pack_withdrawn t packer (List.rev horizon))
          in
          send_batch member acc
        end)
      group.members;
    release_buckets t.intern buckets
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
let enqueue_prefix t id =
  let state =
    match Rib.best_id t.rib id with
    | [] -> state_withdraw
    | _ :: _ -> state_announce
  in
  List.iter
    (fun group ->
      if group.up_members > 0 then begin
        if flag group.g_state id = state_none then Ids.push group.g_pending id;
        group.g_state <- with_flag group.g_state id state;
        schedule_group_flush t group
      end)
    t.groups

let notify_rib_change t prefix routes =
  Hooks.iter (fun f -> f prefix routes) t.rib_hooks

let refresh_and_propagate t id =
  match Rib.refresh_id ~multipath:t.cfg.multipath t.rib id with
  | Rib.Unchanged -> ()
  | Rib.Changed routes ->
      Gauge.set t.g_rib (float_of_int (Rib.loc_rib_size t.rib));
      let prefix = Rib.prefix_of_id t.rib id in
      (* Each changed prefix is an independent decision: FIB writes and
         the UPDATEs it queues chain under this node, siblings under
         the triggering message. *)
      Sched.protect_cause (sched t) (fun () ->
          ignore
            (Sched.cause_point (sched t) decide_kind (Prefix.to_bits prefix));
          notify_rib_change t prefix routes;
          enqueue_prefix t id)

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
  (* Initial table transfer: everything in the Loc-RIB, through the
     per-peer path (group flushes only carry deltas). *)
  peer.pending_announce <- Rib.loc_rib_ids t.rib;
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
    peer.pending_announce <- [];
    Array.fill peer.adj_out 0 (Array.length peer.adj_out) 0;
    List.iter (refresh_and_propagate t) (Rib.drop_peer_ids t.rib ~peer:peer.id)
  end

(* Hold-timer supervision: one deadline event per peer at
   [last_rx + negotiated_hold], re-aimed in place on every received
   message (one O(log n) sift, no allocation) instead of the shared
   hold/3 sweep the speaker used to poll with — so a quiet Established
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

(* Adds [id] to [t.affected] once per UPDATE: [t.stamp] moves on for
   every UPDATE, so no per-UPDATE clearing is needed. *)
let mark_affected t id =
  if id >= Array.length t.marks then begin
    let marks = Array.make (max (id + 1) (2 * Array.length t.marks)) 0 in
    Array.blit t.marks 0 marks 0 (Array.length t.marks);
    t.marks <- marks
  end;
  if t.marks.(id) <> t.stamp then begin
    t.marks.(id) <- t.stamp;
    Ids.push t.affected id
  end

(* A prefix the RIB has never seen has nothing to withdraw and nothing
   to decide, and gets no id: ids are never reclaimed, so withdrawals
   from the wire must not create them. *)
let withdraw_in t peer prefix =
  let id = Rib.find_id t.rib prefix in
  if id >= 0 then begin
    Rib.withdraw_in_id t.rib ~peer:peer.id id;
    mark_affected t id
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
  t.stamp <- t.stamp + 1;
  List.iter (withdraw_in t peer) u.Msg.withdrawn;
  (match u.Msg.reach with
  | None -> ()
  | Some (attrs, nlri) ->
      (* AS-path loop prevention. *)
      if not (List.mem t.cfg.asn attrs.Msg.as_path) then
        List.iter
          (fun prefix ->
            match Policy.eval peer.import prefix attrs with
            | None -> withdraw_in t peer prefix
            | Some attrs ->
                let id = Rib.id t.rib prefix in
                Rib.set_in_id t.rib ~peer:peer.id ~peer_bgp_id:peer.remote_id id
                  attrs;
                mark_affected t id)
          nlri);
  (* One decision per touched prefix, in prefix order. *)
  Array.iter (refresh_and_propagate t)
    (Ids.take_sorted (Rib.compare_ids t.rib) t.affected)

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
  Channel.set_on_close endpoint (fun () ->
      if Process.is_alive t.proc then
        session_down t peer ~reason:"channel closed")

let find_group t export =
  match List.find_opt (fun g -> Policy.equal g.g_export export) t.groups with
  | Some g -> g
  | None ->
      let g =
        {
          memo_key = Attr_intern.memo_key t.intern;
          g_export = export;
          g_prefix_independent = Policy.prefix_independent export;
          members = [];
          up_members = 0;
          g_pending = Ids.create ();
          g_state = Bytes.empty;
          g_mrai_armed = false;
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
      id = Array.length t.peers;
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
      pending_announce = [];
      mrai_armed = false;
      adj_out = [||];
      admin_down = false;
    }
  in
  t.peers <- Array.append t.peers [| peer |];
  group.members <- peer :: group.members;
  bind_endpoint t peer endpoint;
  peer.id

(* ConnectRetry (RFC 4271 §8): Idle sessions that are not admin-down
   are periodically re-initiated with a fresh OPEN, so a session torn
   down by a peer crash or reset re-establishes by itself once the
   peer answers again. (Hold supervision is per-peer deadline events —
   see [arm_hold]; there is no periodic sweep left.) *)
let retry_idle t =
  iter_peers_newest_first
    (fun peer ->
      if peer.state = Idle && not peer.admin_down then send_open t peer)
    t

let arm_timers t =
  if Time.(t.cfg.connect_retry > Time.zero) then
    ignore (Process.every t.proc t.cfg.connect_retry (fun () -> retry_idle t))

(* A crash (Process.kill) sends nothing on the wire: sessions drop
   silently and peers only find out when their hold timers expire.
   Local state is reset so a later restart starts clean. *)
let crash_cleanup t =
  Queue.clear t.inbox;
  t.busy <- false;
  iter_peers_newest_first
    (fun peer -> session_down t peer ~reason:"process killed")
    t

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
  Rib.add_local t.rib prefix (local_attrs t);
  refresh_and_propagate t (Rib.id t.rib prefix)

let withdraw_network t prefix =
  let id = Rib.find_id t.rib prefix in
  if id >= 0 then begin
    Rib.withdraw_in_id t.rib ~peer:Rib.local_peer id;
    refresh_and_propagate t id
  end

let start t =
  if not t.started then begin
    t.started <- true;
    Process.on_kill t.proc (fun () -> crash_cleanup t);
    Process.on_restart t.proc (fun () -> revive t);
    List.iter (fun prefix -> announce t prefix) t.cfg.networks;
    Array.iter (fun peer -> send_open t peer) t.peers;
    arm_timers t;
    tracef t "speaker AS%d started with %d peers" t.cfg.asn
      (Array.length t.peers)
  end

let shutdown t =
  iter_peers_newest_first
    (fun peer ->
      peer.admin_down <- true;
      if peer.state <> Idle then begin
        if Process.is_alive t.proc then
          send_msg t peer (Msg.Notification { code = 6; subcode = 0 });
        session_down t peer ~reason:"administrative shutdown"
      end)
    t

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
