open Horse_engine
open Horse_net
open Horse_emulation
open Horse_topo
open Horse_openflow

type placer_kind = Gff | Annealing

(* The paper's settings: a 5 s poll, big flows at 10% of a 1 Gbps NIC,
   and the annealing placer's seed. *)
let poll_interval = Time.of_sec 5.0
let threshold = 0.1
let nic_bps = 1e9
let seed = 42

type t = {
  ctrl : Controller.t;
  env : Env.t;
  ecmp : App_ecmp.t;
  placer : placer_kind;
  rng : Rng.t;
  overrides : Spf.path Flow_key.Table.t;  (* scheduler-placed paths *)
  mutable polling_started : bool;
  mutable reroute_hooks : (Flow_key.t -> Spf.path -> unit) list;
}

let path_of t key =
  match Flow_key.Table.find_opt t.overrides key with
  | Some path -> Some path
  | None -> App_ecmp.path_of t.ecmp key

(* Reconstruct the 5-tuple from an exact-match table entry installed
   by the embedded ECMP application. *)
let key_of_match (m : Ofmatch.t) =
  match (m.Ofmatch.m_ip_src, m.Ofmatch.m_ip_dst) with
  | Some src_p, Some dst_p
    when Prefix.length src_p = 32 && Prefix.length dst_p = 32 ->
      Some
        (Flow_key.make ~src:(Prefix.network src_p) ~dst:(Prefix.network dst_p)
           ~proto:
             (Headers.Proto.of_int (Option.value m.Ofmatch.m_ip_proto ~default:17))
           ~src_port:(Option.value m.Ofmatch.m_tp_src ~default:0)
           ~dst_port:(Option.value m.Ofmatch.m_tp_dst ~default:0)
           ())
  | Some _, Some _ | None, _ | _, None -> None

let paths_equal a b =
  List.equal
    (fun (x : Topology.link) (y : Topology.link) ->
      x.Topology.link_id = y.Topology.link_id)
    a b

let place t active_keys =
  (* Host pairs for the demand matrix. *)
  let keyed_hosts =
    List.filter_map
      (fun key ->
        match
          ( Env.host_of_ip t.env key.Flow_key.src,
            Env.host_of_ip t.env key.Flow_key.dst )
        with
        | Some src, Some dst -> Some (key, src, dst)
        | None, _ | _, None -> None)
      active_keys
  in
  let arr = Array.of_list keyed_hosts in
  let flows =
    Array.to_list
      (Array.mapi
         (fun i (_, src, dst) -> { Demand.src; dst; tag = i })
         arr)
  in
  let estimated = Demand.estimate flows in
  let big = Demand.big_flows ~threshold estimated in
  let requests =
    List.map
      (fun ((f : Demand.flow), demand) ->
        {
          Placer.tag = f.Demand.tag;
          demand_bps = demand *. nic_bps;
          candidates = Env.ecmp_paths t.env ~src:f.Demand.src ~dst:f.Demand.dst;
        })
      big
  in
  let placements =
    match t.placer with
    | Gff ->
        Placer.global_first_fit
          ~capacity:(fun l -> (Topology.link (Env.topo t.env) l).Topology.capacity)
          requests
    | Annealing ->
        Placer.annealing
          ~capacity:(fun l -> (Topology.link (Env.topo t.env) l).Topology.capacity)
          ~rng:t.rng requests
  in
  List.iter
    (fun (p : Placer.placement) ->
      match p.Placer.path with
      | None -> ()
      | Some path ->
          let key, _, _ = arr.(p.Placer.p_tag) in
          let changed =
            match path_of t key with
            | Some current -> not (paths_equal current path)
            | None -> true
          in
          if changed then begin
            Install.install_path t.ctrl t.env
              ~match_:(Ofmatch.exact_5tuple key) ~priority:20 path;
            Flow_key.Table.replace t.overrides key path;
            List.iter (fun f -> f key path) t.reroute_hooks
          end)
    placements

let poll t =
  let edges =
    List.filter_map
      (fun dpid -> Controller.switch_by_dpid t.ctrl dpid)
      (Env.edge_dpids t.env)
  in
  match edges with
  | [] -> ()
  | _ :: _ ->
      let expected = List.length edges in
      let received = ref 0 in
      let seen = Flow_key.Table.create 64 in
      let on_reply entries =
        List.iter
          (fun (fs : Ofmsg.flow_stats) ->
            match key_of_match fs.Ofmsg.fs_match with
            | Some key -> Flow_key.Table.replace seen key ()
            | None -> ())
          entries;
        incr received;
        if !received = expected then
          place t (Flow_key.Table.fold (fun k () acc -> k :: acc) seen [])
      in
      List.iter
        (fun sw -> Controller.request_flow_stats t.ctrl sw on_reply)
        edges

let install ?(placer = Gff) ctrl env =
  let ecmp = App_ecmp.install ~mode:App_ecmp.Five_tuple ~priority:10 ctrl env in
  let t =
    {
      ctrl;
      env;
      ecmp;
      placer;
      rng = Rng.create seed;
      overrides = Flow_key.Table.create 64;
      polling_started = false;
      reroute_hooks = [];
    }
  in
  Controller.on_switch_up ctrl (fun _sw ->
      if not t.polling_started then begin
        t.polling_started <- true;
        ignore
          (Process.every (Controller.process ctrl) poll_interval (fun () ->
               poll t))
      end);
  t

let on_reroute t f = t.reroute_hooks <- t.reroute_hooks @ [ f ]
