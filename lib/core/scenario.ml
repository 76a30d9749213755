open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_controller
open Horse_stats

type te = Bgp_ecmp | Sdn_ecmp | Hedera_gff | Hedera_annealing | P4_ecmp

let te_name = function
  | Bgp_ecmp -> "bgp-ecmp"
  | Sdn_ecmp -> "sdn-ecmp"
  | Hedera_gff -> "hedera-gff"
  | Hedera_annealing -> "hedera-sa"
  | P4_ecmp -> "p4-ecmp"

let all_te = [ Bgp_ecmp; Hedera_gff; Sdn_ecmp ]

type result = {
  te : te;
  pods : int;
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
  registry : Horse_telemetry.Registry.t;
  injector : Horse_faults.Injector.t option;
  fib_fingerprint : string option;
  causal : Causal.t option;
  fib_provenance : (string * Prefix.t * Causal.id) list;
}

(* The demonstration's flow set: one UDP flow per server towards a
   distinct server, distinct ports so 5-tuple hashing has entropy. *)
let demo_keys exp (ft : Fat_tree.t) =
  let pairs = Experiment.permutation_pairs exp ft.Fat_tree.hosts in
  Array.mapi
    (fun i ((src : Topology.node), (dst : Topology.node)) ->
      match (src.Topology.ip, dst.Topology.ip) with
      | Some s, Some d ->
          Flow_key.make ~src:s ~dst:d
            ~src_port:(10000 + (i mod 50000))
            ~dst_port:(20000 + (i mod 40000))
            ()
      | None, _ | _, None -> assert false (* fat-tree hosts have IPs *))
    pairs

type runtime = {
  exp : Experiment.t;
  keys : Flow_key.t array;
  flow_rate : float;
  started : Flow.t Flow_key.Table.t;
  mutable converged_at : Time.t option;
}

let start_flow rt key path =
  if not (Flow_key.Table.mem rt.started key) then begin
    let flow =
      Fluid.start_flow ~demand:rt.flow_rate (Experiment.fluid rt.exp) ~key ~path
    in
    Flow_key.Table.replace rt.started key flow
  end

let mark_converged rt =
  if rt.converged_at = None then
    rt.converged_at <- Some (Sched.now (Experiment.scheduler rt.exp))

(* --- BGP + ECMP (src/dst hash) ------------------------------------- *)

(* SDN fabrics expose link up/down only; expose that subset as a
   fault-injection target so flap plans still apply (crashes and
   impairments are recorded as skipped). *)
let sdn_fault_target fabric (topo : Topology.t) =
  let id name =
    Option.map
      (fun (n : Topology.node) -> n.Topology.id)
      (Topology.node_by_name topo name)
  in
  let with2 a b f =
    match (id a, id b) with Some a, Some b -> f a b | _, _ -> false
  in
  {
    Horse_faults.Injector.describe = "sdn-fabric";
    link_down = (fun ~a ~b -> with2 a b (fun a b -> Sdn_fabric.fail_link fabric ~a ~b));
    link_up = (fun ~a ~b -> with2 a b (fun a b -> Sdn_fabric.restore_link fabric ~a ~b));
    node_crash = (fun _ -> false);
    node_restart = (fun _ -> false);
    session_reset = (fun ~a:_ ~b:_ -> false);
    impair = (fun ~a:_ ~b:_ ~rng:_ _ -> false);
    links = (fun () -> Topology.switch_links topo);
    converged = (fun () -> Sdn_fabric.pending_flows fabric = 0);
  }

let setup_bgp rt (ft : Fat_tree.t) =
  let fabric =
    Routed_fabric.build ~cm:(Experiment.cm rt.exp)
      ~originate:(Fat_tree.edge_subnets ft) ft.Fat_tree.topo
  in
  Experiment.at rt.exp Time.zero (fun () -> Routed_fabric.start fabric);
  Routed_fabric.when_converged fabric (fun () ->
      mark_converged rt;
      Array.iter
        (fun key ->
          match Routed_fabric.path_for fabric key with
          | Ok path -> start_flow rt key path
          | Error msg ->
              Trace.addf (Experiment.trace rt.exp)
                ~at:(Sched.now (Experiment.scheduler rt.exp))
                ~label:"scenario" "flow %a unroutable: %s" Flow_key.pp key msg)
        rt.keys);
  ( Some (Routed_fabric.fault_target fabric),
    Some (fun () -> Routed_fabric.fib_fingerprint fabric),
    Some (fun () -> Routed_fabric.fib_provenance fabric) )

(* --- SDN (reactive controller) -------------------------------------- *)

let setup_sdn rt (ft : Fat_tree.t) te =
  let fabric =
    Sdn_fabric.build ~cm:(Experiment.cm rt.exp)
      ~fluid:(Experiment.fluid rt.exp) ft.Fat_tree.topo
  in
  let ctrl = Sdn_fabric.controller fabric in
  let env = Sdn_fabric.env fabric in
  let on_app_reroute key path =
    match Flow_key.Table.find_opt rt.started key with
    | None -> ()
    | Some flow ->
        let sched = Experiment.scheduler rt.exp in
        ignore
          (Sched.schedule_after sched (Time.of_ms 2) (fun () ->
               if flow.Flow.active then
                 Fluid.set_path (Experiment.fluid rt.exp) flow path))
  in
  (match te with
  | Sdn_ecmp ->
      let app = App_ecmp.install ~mode:App_ecmp.Five_tuple ctrl env in
      App_ecmp.on_reroute app on_app_reroute
  | Hedera_gff | Hedera_annealing ->
      let placer =
        match te with
        | Hedera_annealing -> App_hedera.Annealing
        | Hedera_gff | Sdn_ecmp | Bgp_ecmp | P4_ecmp -> App_hedera.Gff
      in
      let app = App_hedera.install ~placer ctrl env in
      (* The scheduler's FLOW_MODs take one channel latency to land in
         the tables; move the fluid flow onto the new path once they
         have. *)
      App_hedera.on_reroute app on_app_reroute
  | Bgp_ecmp | P4_ecmp -> invalid_arg "setup_sdn: not an OpenFlow scenario");
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
  (Some (sdn_fault_target fabric ft.Fat_tree.topo), None, None)

(* --- P4 (programmable pipelines) ------------------------------------- *)

let setup_p4 rt (ft : Fat_tree.t) =
  let fabric =
    match P4_fabric.build ~cm:(Experiment.cm rt.exp) ft.Fat_tree.topo with
    | Ok fabric -> fabric
    | Error msg -> invalid_arg ("setup_p4: " ^ msg)
  in
  Experiment.at rt.exp Time.zero (fun () -> P4_fabric.program_routes fabric);
  P4_fabric.when_programmed fabric (fun () ->
      mark_converged rt;
      Array.iter
        (fun key ->
          match P4_fabric.path_for fabric key with
          | Ok path -> start_flow rt key path
          | Error msg ->
              Trace.addf (Experiment.trace rt.exp)
                ~at:(Sched.now (Experiment.scheduler rt.exp))
                ~label:"scenario" "flow %a unroutable: %s" Flow_key.pp key msg)
        rt.keys);
  (None, None, None)

(* --- entry point ----------------------------------------------------- *)

let run_fat_tree_te ?(seed = 42) ?(sample_every = Time.of_ms 500) ?config
    ?(flow_rate = 1e9) ?faults ~pods ~te ~duration () =
  let (rt, injector, fingerprint, provenance), setup_wall_s =
    Wall.time (fun () ->
        let ft = Fat_tree.build ~k:pods () in
        let exp = Experiment.create ?config ~seed ft.Fat_tree.topo in
        let rt =
          {
            exp;
            keys = demo_keys exp ft;
            flow_rate;
            started = Flow_key.Table.create 256;
            converged_at = None;
          }
        in
        let target, fingerprint, provenance =
          Sched.with_span (Experiment.scheduler exp) ~name:"setup" (fun () ->
              match te with
              | Bgp_ecmp -> setup_bgp rt ft
              | P4_ecmp -> setup_p4 rt ft
              | Sdn_ecmp | Hedera_gff | Hedera_annealing ->
                  setup_sdn rt ft te)
        in
        let injector =
          match (faults, target) with
          | None, _ -> None
          | Some plan, Some target ->
              Some
                (Horse_faults.Injector.arm
                   (Experiment.scheduler exp)
                   ~target plan)
          | Some _, None ->
              invalid_arg
                (Printf.sprintf "run_fat_tree_te: %s has no fault target"
                   (te_name te))
        in
        Fluid.start_sampling (Experiment.fluid exp) ~every:sample_every;
        (rt, injector, fingerprint, provenance))
  in
  let sched_stats, run_wall_s =
    Wall.time (fun () -> Experiment.run ~until:duration rt.exp)
  in
  let fluid = Experiment.fluid rt.exp in
  let delivered_bits = Fluid.total_delivered_bits fluid in
  let n_hosts = Array.length rt.keys in
  {
    te;
    pods;
    n_hosts;
    setup_wall_s;
    run_wall_s;
    sched_stats;
    aggregate = Fluid.aggregate_series fluid;
    delivered_bits;
    offered_bits = float_of_int n_hosts *. flow_rate *. Time.to_sec duration;
    converged_at = rt.converged_at;
    control_messages = Connection_manager.messages_observed (Experiment.cm rt.exp);
    control_bytes = Connection_manager.bytes_observed (Experiment.cm rt.exp);
    flows_started = Flow_key.Table.length rt.started;
    registry = Experiment.registry rt.exp;
    injector;
    fib_fingerprint = Option.map (fun f -> f ()) fingerprint;
    causal = Sched.causal (Experiment.scheduler rt.exp);
    fib_provenance =
      (match provenance with Some f -> f () | None -> []);
  }

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

let run_wan_megauser ?(seed = 42) ?config ?wan ?(classes = 20_000) ?(users = 1_000_000)
    ?(user_demand = 150e3) ?(headroom = 1.1) ?(sites = 3) ?(ticks = 48)
    ?(sample_every = Time.of_ms 500) ?(duration = Time.of_sec 60.0) () =
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
        let sched = Sched.create ?config () in
        let fluid = Fluid.create sched topo in
        ignore seed;
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
        Fluid.start_sampling fluid ~every:sample_every;
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

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>%s pods=%d hosts=%d@,\
     setup %.3fs wall, run %.3fs wall for %a virtual@,\
     converged at %s; %d/%d flows; %d control msgs (%d bytes)@,\
     delivered %.4g bits (%.1f%% of offered)@,\
     mean aggregate rate %.3f Gbps@]"
    (te_name r.te) r.pods r.n_hosts r.setup_wall_s r.run_wall_s Time.pp
    r.sched_stats.Sched.end_time
    (match r.converged_at with
    | Some at -> Format.asprintf "%a" Time.pp at
    | None -> "never")
    r.flows_started r.n_hosts r.control_messages r.control_bytes
    r.delivered_bits
    (100.0 *. r.delivered_bits /. Float.max 1.0 r.offered_bits)
    (Series.mean r.aggregate /. 1e9)
