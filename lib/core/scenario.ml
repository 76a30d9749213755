open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_controller
open Horse_stats

type te = Spec.control =
  | Bgp_ecmp | Ospf | Sdn_ecmp | Hedera_gff | Hedera_annealing | P4_ecmp

let te_name = function
  | Bgp_ecmp -> "bgp-ecmp"
  | Ospf -> "ospf"
  | Sdn_ecmp -> "sdn-ecmp"
  | Hedera_gff -> "hedera-gff"
  | Hedera_annealing -> "hedera-sa"
  | P4_ecmp -> "p4-ecmp"

let all_te = [ Bgp_ecmp; Hedera_gff; Sdn_ecmp ]

type result = {
  spec : Spec.t;
  n_hosts : int;
  setup_wall_s : float;
  run_wall_s : float;
  sched_stats : Sched.stats;
  aggregate : Series.t;
  delivered_bits : float;
  offered_bits : float;
  converged_at : Time.t option;
  control_messages : int;
  control_bytes : int;
  flows_started : int;
  unroutable : (Flow_key.t * string) list;
  stopped : (Time.t * Flow_key.t) list;
  registry : Horse_telemetry.Registry.t;
  injector : Horse_faults.Injector.t option;
  fib_fingerprint : string option;
  causal : Causal.t option;
  fib_provenance : (string * Prefix.t * Causal.id) list;
}

let flow_rate = 1e9

(* A spec's network: its graph, the hosts that carry the permutation
   (none without traffic), what each node originates, and whether it is
   a WAN. A WAN gets one host per router only when it carries traffic;
   router [i] is node [i] and originates the PoP prefix its host lives
   in. *)
type site = {
  topo : Topology.t;
  hosts : Topology.node array;
  originate : int -> Prefix.t list;
  wan : bool;
}

let site (spec : Spec.t) =
  let traffic = spec.Spec.traffic = Spec.Permutation in
  let of_wan (w : Wan.t) =
    let routers = Array.length w.Wan.routers in
    {
      topo = w.Wan.topo;
      hosts = (if traffic then Wan.attach_hosts w else [||]);
      originate = (fun node -> if node < routers then [ Wan.router_prefix w node ] else []);
      wan = true;
    }
  in
  match spec.Spec.topology with
  | Spec.Fat_tree k ->
      let ft = Fat_tree.build ~k () in
      let originate = Fat_tree.edge_subnets ft in
      let hosts = if traffic then ft.Fat_tree.hosts else [||] in
      { topo = ft.Fat_tree.topo; hosts; originate; wan = false }
  | Spec.Linear { routers; prefixes } ->
      if traffic then invalid_arg "Scenario.run: a linear topology has no hosts";
      let originate node =
        List.init prefixes (fun i -> Prefix.make (Ipv4.of_octets 20 node i 0) 24)
      in
      { (of_wan (Wan.linear routers)) with originate }
  | Spec.Ring n -> of_wan (Wan.ring n)
  | Spec.Gnp n -> of_wan (Wan.random_gnp ~seed:spec.Spec.seed ~n ~p:0.3 ())
  | Spec.Abilene -> of_wan (Wan.abilene ())

(* One flow per host towards a distinct host (seeded derangement), with
   distinct ports so 5-tuple hashing has entropy. *)
let permutation exp site =
  let src_port, dst_port = if site.wan then (7000, 8000) else (10000, 20000) in
  Array.mapi
    (fun i ((src : Topology.node), (dst : Topology.node)) ->
      Flow_key.make ~src:(Option.get src.Topology.ip) ~dst:(Option.get dst.Topology.ip)
        ~src_port:(src_port + (i mod 50000))
        ~dst_port:(dst_port + (i mod 40000))
        ())
    (Experiment.permutation_pairs exp site.hosts)

type runtime = {
  exp : Experiment.t;
  keys : Flow_key.t array;
  started : Flow.t Flow_key.Table.t;
  mutable converged_at : Time.t option;
  mutable unroutable : (Flow_key.t * string) list;  (* newest first *)
}

let start_flow rt key path =
  if not (Flow_key.Table.mem rt.started key) then
    Flow_key.Table.replace rt.started key
      (Fluid.start_flow ~demand:flow_rate (Experiment.fluid rt.exp) ~key ~path)

let mark_converged rt =
  if rt.converged_at = None then
    rt.converged_at <- Some (Sched.now (Experiment.scheduler rt.exp))

(* Starts every flow on its path of the instant the tables completed. *)
let start_all rt path_for () =
  mark_converged rt;
  Array.iter
    (fun key ->
      match path_for key with
      | Ok path -> start_flow rt key path
      | Error msg -> rt.unroutable <- (key, msg) :: rt.unroutable)
    rt.keys

(* Each control plane's setup returns its fault surface, the FIB digest
   and the FIB entries' provenance.

   BGP and OSPF: boot at t = 0, start the traffic once the FIBs are
   complete. A WAN's flows then follow the FIBs. *)
let setup_routed rt site fabric =
  Experiment.at rt.exp Time.zero (fun () -> Routed_core.start fabric);
  Routed_core.when_converged fabric (fun () ->
      start_all rt (fun key -> Routed_core.path_for fabric key) ();
      if site.wan then
        Routed_core.follow fabric (Experiment.fluid rt.exp)
          (List.filter_map (Flow_key.Table.find_opt rt.started)
             (Array.to_list rt.keys)));
  ( Some (Routed_core.fault_target fabric),
    (fun () -> Some (Routed_core.fib_fingerprint fabric)),
    fun () -> Routed_core.fib_provenance fabric )

(* P4: program the tables at t = 0, start the traffic once every insert
   is acknowledged. *)
let setup_p4 rt site =
  match P4_fabric.build ~cm:(Experiment.cm rt.exp) site.topo with
  | Error msg -> invalid_arg ("Scenario.run: " ^ msg)
  | Ok fabric ->
      Experiment.at rt.exp Time.zero (fun () -> P4_fabric.program_routes fabric);
      P4_fabric.when_programmed fabric
        (start_all rt (fun key -> P4_fabric.path_for fabric key));
      (None, (fun () -> None), fun () -> [])

(* SDN (reactive controller): each flow resolves its own path through
   PACKET_IN round trips. *)
let setup_sdn rt site placer =
  let fabric =
    Sdn_fabric.build ~cm:(Experiment.cm rt.exp)
      ~fluid:(Experiment.fluid rt.exp) site.topo
  in
  let ctrl = Sdn_fabric.controller fabric in
  let env = Sdn_fabric.env fabric in
  let on_app_reroute key path =
    match Flow_key.Table.find_opt rt.started key with
    | None -> ()
    | Some flow ->
        ignore
          (Sched.schedule_after (Experiment.scheduler rt.exp) (Time.of_ms 2) (fun () ->
               if flow.Flow.active then Fluid.set_path (Experiment.fluid rt.exp) flow path))
  in
  (match placer with
  | None ->
      let app = App_ecmp.install ~mode:App_ecmp.Five_tuple ctrl env in
      App_ecmp.on_reroute app on_app_reroute
  | Some placer ->
      let app = App_hedera.install ~placer ctrl env in
      (* The scheduler's FLOW_MODs take one channel latency to land in
         the tables; move the fluid flow onto the new path once they
         have. *)
      App_hedera.on_reroute app on_app_reroute);
  (* Give the OpenFlow handshake a head start, then launch all flows;
     each resolves via PACKET_IN round trips. *)
  let n = Array.length rt.keys in
  Experiment.at rt.exp (Time.of_ms 10) (fun () ->
      Array.iter
        (fun key ->
          Sdn_fabric.route_flow fabric key ~on_ready:(fun path ->
              start_flow rt key path;
              if Flow_key.Table.length rt.started = n then mark_converged rt))
        rt.keys);
  (Some (Sdn_fabric.fault_target fabric), (fun () -> None), fun () -> [])

let setup (spec : Spec.t) rt site =
  let cm = Experiment.cm rt.exp in
  match (spec.Spec.control, site.wan) with
  | Bgp_ecmp, _ ->
      setup_routed rt site
        (Routed_fabric.build ~cm ~hold_time:spec.Spec.hold_time
           ~originate:site.originate site.topo)
  | Ospf, _ ->
      setup_routed rt site
        (Ospf_fabric.build ~cm
           ~originate:(fun node -> List.map (fun p -> (p, 0)) (site.originate node))
           site.topo)
  | P4_ecmp, false -> setup_p4 rt site
  | Sdn_ecmp, false -> setup_sdn rt site None
  | Hedera_gff, false -> setup_sdn rt site (Some App_hedera.Gff)
  | Hedera_annealing, false -> setup_sdn rt site (Some App_hedera.Annealing)
  | (P4_ecmp | Sdn_ecmp | Hedera_gff | Hedera_annealing), true ->
      invalid_arg
        (Printf.sprintf "Scenario.run: %s runs on a fat-tree only"
           (te_name spec.Spec.control))

let run (spec : Spec.t) =
  let (rt, injector, fingerprint, provenance), setup_wall_s =
    Wall.time (fun () ->
        let site = site spec in
        let exp =
          Experiment.create ~config:spec.Spec.config ~seed:spec.Spec.seed site.topo
        in
        let rt =
          {
            exp;
            keys = permutation exp site;
            started = Flow_key.Table.create 256;
            converged_at = None;
            unroutable = [];
          }
        in
        let sched = Experiment.scheduler exp in
        let target, fingerprint, provenance =
          Sched.with_span sched ~name:"setup" (fun () -> setup spec rt site)
        in
        let injector =
          match (spec.Spec.faults, target) with
          | None, _ -> None
          | Some plan, Some target -> Some (Horse_faults.Injector.arm sched ~target plan)
          | Some _, None ->
              invalid_arg
                (Printf.sprintf "Scenario.run: %s has no fault target"
                   (te_name spec.Spec.control))
        in
        if rt.keys <> [||] then
          Fluid.start_sampling (Experiment.fluid exp) ~every:spec.Spec.sample_every;
        (rt, injector, fingerprint, provenance))
  in
  let sched_stats, run_wall_s =
    Wall.time (fun () -> Experiment.run ~until:spec.Spec.duration rt.exp)
  in
  let fluid = Experiment.fluid rt.exp and cm = Experiment.cm rt.exp in
  let n_hosts = Array.length rt.keys in
  {
    spec;
    n_hosts;
    setup_wall_s;
    run_wall_s;
    sched_stats;
    aggregate = Fluid.aggregate_series fluid;
    delivered_bits = Fluid.total_delivered_bits fluid;
    offered_bits = float_of_int n_hosts *. flow_rate *. Time.to_sec spec.Spec.duration;
    converged_at = rt.converged_at;
    control_messages = Connection_manager.messages_observed cm;
    control_bytes = Connection_manager.bytes_observed cm;
    flows_started = Flow_key.Table.length rt.started;
    unroutable = List.rev rt.unroutable;
    stopped =
      Flow_key.Table.fold
        (fun key (f : Flow.t) acc ->
          match f.Flow.stopped_at with
          | Some at -> ((at, f.Flow.id), key) :: acc
          | None -> acc)
        rt.started []
      |> List.sort compare
      |> List.map (fun ((at, _), key) -> (at, key));
    registry = Experiment.registry rt.exp;
    injector;
    fib_fingerprint = fingerprint ();
    causal = Sched.causal (Experiment.scheduler rt.exp);
    fib_provenance = provenance ();
  }

let run_fat_tree_te ?seed ?faults ~pods ~te ~duration () =
  run (Spec.make ?seed ?faults ~duration (Spec.Fat_tree pods) te)

(* --- Million-user CDN/anycast workload on the WAN -------------------- *)

type megauser_result = {
  mu_cities : int;
  mu_sites : int;
  mu_classes_started : int;
  mu_classes_peak : int;
  mu_users_peak : int;
  mu_events : int;
  mu_reroutes : int;
  mu_solves : int;
  mu_solve_work : int;
  mu_delta : Fair_share.Delta.stats option;
  mu_setup_wall_s : float;
  mu_run_wall_s : float;
  mu_delivered_bits : float;
  mu_aggregate : Series.t;
  mu_sched_stats : Sched.stats;
  mu_registry : Horse_telemetry.Registry.t;
}

(* One traffic-matrix cell: users in [city] consuming [content]'s
   service, served from the anycast [served_by] replica. The cell's
   aggregate demand is carved into [k] flow classes that arrive and
   depart with the city's diurnal cycle. *)
type mu_cell = {
  mc_city : int;
  mc_content : int;
  mc_k : int;
  mc_demand : float;  (* per class, bps *)
  mc_users : int;  (* per class *)
  mutable mc_served_by : int;
  mutable mc_active : Flow.t list;  (* newest first *)
  mutable mc_seq : int;
}

(* The megauser day samples the fluid state every 500 ms. *)
let megauser_sample_every = Time.of_ms 500

let run_wan_megauser ?seed:_ ?wan ?(classes = 20_000) ?(users = 1_000_000)
    ?(user_demand = 150e3) ?(headroom = 1.1) ?(sites = 3) ?(ticks = 48)
    ?(duration = Time.of_sec 60.0) () =
  let wan = match wan with Some w -> w | None -> Wan.abilene () in
  let n_cities = Array.length wan.Wan.routers in
  if sites < 1 || sites > n_cities then
    invalid_arg "run_wan_megauser: sites outside [1, cities]";
  if classes < 1 then invalid_arg "run_wan_megauser: classes < 1";
  if ticks < 1 then invalid_arg "run_wan_megauser: ticks < 1";
  let state, setup_wall_s =
    Wall.time (fun () ->
        let topo = wan.Wan.topo in
        let hosts = Wan.attach_hosts ~capacity:40e9 wan in
        let sched = Sched.create () in
        let fluid = Fluid.create sched topo in
        (* Anycast replicas: site cities spread across the index range
           (for Abilene that is roughly west-to-east). *)
        let site_city = Array.init sites (fun s -> s * n_cities / sites) in
        let site_tree =
          Array.map
            (fun c -> Spf.shortest_tree topo ~src:hosts.(c).Topology.id)
            site_city
        in
        (* Per city: replica sites ranked by shortest-path distance. *)
        let ranked =
          Array.init n_cities (fun c ->
              let ds =
                Array.mapi
                  (fun s tree ->
                    ( Option.value
                        (Spf.distance tree hosts.(c).Topology.id)
                        ~default:max_int,
                      s ))
                  site_tree
              in
              Array.sort compare ds;
              Array.map snd ds)
        in
        let path_from_site s c =
          if site_city.(s) = c then [] (* served in-city: unconstrained *)
          else
            Option.value
              (Spf.first_path site_tree.(s) topo ~dst:hosts.(c).Topology.id)
              ~default:[]
        in
        (* Gravity traffic matrix over the cities; cell (i, j) is city
           i's users consuming content j, delivered from i's nearest
           replica. *)
        let masses = Traffic_matrix.zipf_masses n_cities in
        let total_demand = float_of_int users *. user_demand in
        let tm = Traffic_matrix.gravity ~total:total_demand ~masses in
        let cells = ref [] in
        Traffic_matrix.iter tm (fun ~src ~dst d ->
            let k =
              max 1
                (int_of_float
                   (Float.round (float_of_int classes *. d /. total_demand)))
            in
            cells :=
              {
                mc_city = src;
                mc_content = dst;
                mc_k = k;
                mc_demand = d /. float_of_int k;
                mc_users =
                  max 1
                    (int_of_float
                       (Float.round
                          (float_of_int users *. d /. total_demand
                          /. float_of_int k)));
                mc_served_by = ranked.(src).(0);
                mc_active = [];
                mc_seq = 0;
              }
              :: !cells);
        let cells = Array.of_list (List.rev !cells) in
        (* Capacity planning: size every link for its expected peak
           load plus headroom, the way operators provision a WAN
           against a forecast matrix. The diurnal swing then rides
           within plan — the delta solver's fast path proves the
           bottleneck set never moves — while the unplanned mid-day
           site drain concentrates load onto paths sized for someone
           else's traffic and genuinely saturates them. *)
        let expected : (int, float) Hashtbl.t = Hashtbl.create 64 in
        Array.iter
          (fun (cell : mu_cell) ->
            let agg = float_of_int cell.mc_k *. cell.mc_demand in
            List.iter
              (fun (l : Topology.link) ->
                let cur =
                  Option.value
                    (Hashtbl.find_opt expected l.Topology.link_id)
                    ~default:0.0
                in
                Hashtbl.replace expected l.Topology.link_id (cur +. agg))
              (path_from_site cell.mc_served_by cell.mc_city))
          cells;
        Hashtbl.iter
          (fun lid load ->
            let l = Topology.link topo lid in
            if l.Topology.capacity < headroom *. load then
              Topology.set_capacity topo lid (headroom *. load))
          expected;
        let duration_s = Time.to_sec duration in
        let phase_of c =
          (* Time-zone spread: a quarter-cycle of phase across the
             city list, west to east. *)
          0.25 *. float_of_int c /. float_of_int (max 1 (n_cities - 1))
        in
        let reroutes = ref 0 in
        let classes_peak = ref 0 and users_peak = ref 0 in
        let start_class (cell : mu_cell) =
          let city_host = hosts.(cell.mc_city) in
          let site_host = hosts.(site_city.(cell.mc_served_by)) in
          match (site_host.Topology.ip, city_host.Topology.ip) with
          | Some src, Some dst ->
              let key =
                Flow_key.make ~src ~dst
                  ~src_port:(8000 + (cell.mc_content mod 50000))
                  ~dst_port:(10000 + (cell.mc_seq mod 50000))
                  ()
              in
              cell.mc_seq <- cell.mc_seq + 1;
              let path = path_from_site cell.mc_served_by cell.mc_city in
              let f =
                Fluid.start_flow ~demand:cell.mc_demand ~users:cell.mc_users
                  fluid ~key ~path
              in
              cell.mc_active <- f :: cell.mc_active
          | None, _ | _, None -> assert false (* WAN hosts have IPs *)
        in
        let stop_class (cell : mu_cell) =
          match cell.mc_active with
          | [] -> ()
          | f :: rest ->
              cell.mc_active <- rest;
              Fluid.stop_flow fluid f
        in
        let tick_dt = duration_s /. float_of_int ticks in
        let tick m =
          let t_s = float_of_int m *. tick_dt in
          let now = Sched.now sched in
          Array.iter
            (fun (cell : mu_cell) ->
              let f =
                Traffic_matrix.diurnal_factor ~period_s:duration_s
                  ~phase:(phase_of cell.mc_city) t_s
              in
              let target =
                max 0
                  (int_of_float (Float.round (float_of_int cell.mc_k *. f)))
              in
              let cur = List.length cell.mc_active in
              let delta = target - cur in
              (* Spread the cell's arrivals/departures across the tick
                 window so each is its own solve instant. *)
              for j = 0 to abs delta - 1 do
                let at =
                  Time.add now
                    (Time.of_sec
                       (tick_dt
                       *. float_of_int (j + 1)
                       /. float_of_int (abs delta + 1)))
                in
                ignore
                  (Sched.schedule_at sched at (fun () ->
                       if delta > 0 then start_class cell else stop_class cell))
              done)
            cells;
          classes_peak := max !classes_peak (Fluid.flow_count fluid);
          users_peak := max !users_peak (Fluid.active_users fluid)
        in
        for m = 0 to ticks - 1 do
          ignore
            (Sched.schedule_at sched
               (Time.of_sec (float_of_int m *. tick_dt))
               (fun () -> tick m))
        done;
        (* Anycast steering: halfway through the day the busiest
           replica drains for maintenance, and every cell it serves is
           steered to the city's next-nearest site — a reroute storm
           that pushes its load onto paths planned for someone else's
           traffic. The site returns at 5/8 of the day and traffic is
           steered home, so the congested regime is a bounded window,
           as a real maintenance drain is. *)
        (if sites > 1 then begin
           let drained = ref [] in
           let drain () =
             let served = Array.make sites 0 in
             Array.iter
               (fun (c : mu_cell) ->
                 served.(c.mc_served_by) <-
                   served.(c.mc_served_by) + List.length c.mc_active)
               cells;
             let busiest = ref 0 in
             Array.iteri
               (fun s n -> if n > served.(!busiest) then busiest := s)
               served;
             Array.iter
               (fun (cell : mu_cell) ->
                 if cell.mc_served_by = !busiest then begin
                   let alt =
                     Array.fold_left
                       (fun acc s -> if acc = -1 && s <> !busiest then s else acc)
                       (-1) ranked.(cell.mc_city)
                   in
                   drained := (cell, !busiest) :: !drained;
                   cell.mc_served_by <- alt;
                   let path = path_from_site alt cell.mc_city in
                   List.iter
                     (fun f ->
                       if f.Flow.active then begin
                         Fluid.set_path fluid f path;
                         incr reroutes
                       end)
                     cell.mc_active
                 end)
               cells
           in
           let restore () =
             List.iter
               (fun ((cell : mu_cell), home) ->
                 cell.mc_served_by <- home;
                 let path = path_from_site home cell.mc_city in
                 List.iter
                   (fun f ->
                     if f.Flow.active then begin
                       Fluid.set_path fluid f path;
                       incr reroutes
                     end)
                   cell.mc_active)
               !drained;
             drained := []
           in
           ignore
             (Sched.schedule_at sched
                (Time.of_sec (duration_s /. 2.0))
                (fun () -> drain ()));
           ignore
             (Sched.schedule_at sched
                (Time.of_sec (duration_s *. 0.625))
                (fun () -> restore ()))
         end);
        Fluid.start_sampling fluid ~every:megauser_sample_every;
        (sched, fluid, reroutes, classes_peak, users_peak))
  in
  let sched, fluid, reroutes, classes_peak, users_peak = state in
  let sched_stats, run_wall_s =
    Wall.time (fun () -> Sched.run ~until:duration sched)
  in
  {
    mu_cities = n_cities;
    mu_sites = sites;
    mu_classes_started =
      Fluid.flow_count fluid + Fluid.completed_flow_count fluid;
    mu_classes_peak = !classes_peak;
    mu_users_peak = !users_peak;
    mu_events = Fluid.recompute_requests fluid;
    mu_reroutes = !reroutes;
    mu_solves = Fluid.recompute_count fluid;
    mu_solve_work = Fluid.solve_work fluid;
    mu_delta = Fluid.delta_stats fluid;
    mu_setup_wall_s = setup_wall_s;
    mu_run_wall_s = run_wall_s;
    mu_delivered_bits = Fluid.total_delivered_bits fluid;
    mu_aggregate = Fluid.aggregate_series fluid;
    mu_sched_stats = sched_stats;
    mu_registry = Sched.registry sched;
  }

let pp_megauser_result fmt r =
  Format.fprintf fmt
    "@[<v>megauser: %d cities, %d sites, %d classes started (peak %d, %d \
     users)@,\
     %d events (%d reroutes) -> %d solves, %d flows of solve work (%.1f per \
     event)@,\
     setup %.3fs wall, run %.3fs wall; delivered %.4g bits, mean aggregate \
     %.2f Gbps@]"
    r.mu_cities r.mu_sites r.mu_classes_started r.mu_classes_peak
    r.mu_users_peak r.mu_events r.mu_reroutes r.mu_solves r.mu_solve_work
    (float_of_int r.mu_solve_work /. float_of_int (max 1 r.mu_events))
    r.mu_setup_wall_s r.mu_run_wall_s r.mu_delivered_bits
    (Series.mean r.mu_aggregate /. 1e9)

let pp_topology fmt = function
  | Spec.Fat_tree k -> Format.fprintf fmt "pods=%d" k
  | Spec.Linear { routers; _ } -> Format.fprintf fmt "linear:%d" routers
  | Spec.Ring n -> Format.fprintf fmt "ring:%d" n
  | Spec.Gnp n -> Format.fprintf fmt "random:%d" n
  | Spec.Abilene -> Format.pp_print_string fmt "abilene"

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>%s %a hosts=%d@,\
     setup %.3fs wall, run %.3fs wall for %a virtual@,\
     converged at %s; %d/%d flows; %d control msgs (%d bytes)@,\
     delivered %.4g bits (%.1f%% of offered)@,\
     mean aggregate rate %.3f Gbps@]"
    (te_name r.spec.Spec.control) pp_topology r.spec.Spec.topology r.n_hosts
    r.setup_wall_s r.run_wall_s Time.pp r.sched_stats.Sched.end_time
    (match r.converged_at with
    | Some at -> Format.asprintf "%a" Time.pp at
    | None -> "never")
    r.flows_started r.n_hosts r.control_messages r.control_bytes
    r.delivered_bits
    (100.0 *. r.delivered_bits /. Float.max 1.0 r.offered_bits)
    (Series.mean r.aggregate /. 1e9)
