(* The benchmark's workloads and their output checks.

   The fat-tree workloads are assembled here from the public layer API,
   step by step as [Scenario.run_fat_tree_te] assembles them
   (Fat_tree.build, Experiment.create, Routed_fabric/Sdn_fabric.build,
   Injector.arm, Fluid.start_flow, Experiment.run), so that each call
   into a layer can be timed from outside. The differential test in
   [E2e.selftest] holds them equal to the scenario. megauser-day is one
   call to [Scenario.run_wan_megauser]; its layer split comes from the
   counters the program keeps. *)

open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_controller
open Horse_core
module Json = Horse_telemetry.Json
module Registry = Horse_telemetry.Registry
module Plan = Horse_faults.Plan
module Injector = Horse_faults.Injector

type kind = Bgp_fabric | Bgp_storm | Sdn_fabric | Megauser_day

type params = {
  name : string;
  kind : kind;
  k : int;  (** fat-tree arity; unused by megauser-day *)
  classes : int;  (** megauser-day peak flow classes *)
  duration : Time.t;  (** virtual *)
}

(* Sizes are chosen so that one rep takes 1-2 s on a 2-core box and
   peaks below 300 MB: long enough to time, short enough that a 20 s
   run holds enough reps for a steady median, each bracketed closely by
   speed-kernel readings. [smoke] shrinks every workload for the
   runtest gate. *)
let all ~smoke =
  let k big = if smoke then 4 else big in
  let duration = Time.of_sec 30.0 in
  [
    { name = "bgp-fabric"; kind = Bgp_fabric; k = k 10; classes = 0; duration };
    { name = "bgp-storm"; kind = Bgp_storm; k = k 8; classes = 0; duration };
    { name = "sdn-fabric"; kind = Sdn_fabric; k = k 18; classes = 0; duration };
    {
      name = "megauser-day";
      kind = Megauser_day;
      k = 0;
      classes = (if smoke then 2_000 else 10_000);
      duration;
    };
  ]

let find ~smoke name = List.find_opt (fun p -> p.name = name) (all ~smoke)

(* Storm shape: every 7th switch-switch link flaps (down 1.5 s) once
   every 1/0.3 s between 5 s and 15 s, each from a seeded phase, and
   the first aggregation switch crashes at 6 s and restarts at 14 s.
   Periodic flaps with random phases keep the number of faults the
   same for every seed (three per site), so the seed moves the fault
   timing but not the amount of work. *)
let flap_period_s = 1.0 /. 0.3

let params_json p =
  let open Json in
  let d = ("duration_s", Float (Time.to_sec p.duration)) in
  match p.kind with
  | Megauser_day ->
      Obj
        [
          ("topology", String "abilene");
          ("classes", Int p.classes);
          ("users", Int 1_000_000);
          ("ticks", Int 48);
          d;
        ]
  | Bgp_fabric | Bgp_storm | Sdn_fabric ->
      Obj
        ([
           ("topology", String "fat-tree");
           ("k", Int p.k);
           ("hosts", Int (Fat_tree.n_hosts ~k:p.k));
           ("switches", Int (Fat_tree.n_switches ~k:p.k));
           ( "control_plane",
             String (if p.kind = Sdn_fabric then "sdn-ecmp" else "bgp-ecmp") );
           d;
         ]
        @
        if p.kind = Bgp_storm then
          [
            ( "storm",
              String
                (Printf.sprintf
                   "every 7th switch link flaps every %.3f s from a seeded \
                    phase, down 1.5 s, 5-15 s; agg-p0-0 down 6-14 s"
                   flap_period_s) );
          ]
        else [])

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* Every per-layer metric a rep reports. "s" is host wall time; "sim_s"
   and "sim_ms" are simulated (virtual) time. Span-derived metrics come
   from traced reps only. [listed] marks the metrics BENCHMARK.json
   names: all but the host times that read 0 on a workload whose path
   skips that layer (their shares, self.*_pct, are listed instead). *)
type layer_metric = {
  lm_name : string;
  lm_unit : string;
  lm_higher_is_better : bool;
  lm_from_spans : bool;
  lm_listed : bool;
}

let layer_metrics =
  let m ?(higher = false) ?(spans = false) ?(listed = true) lm_name lm_unit =
    {
      lm_name;
      lm_unit;
      lm_higher_is_better = higher;
      lm_from_spans = spans;
      lm_listed = listed;
    }
  in
  let span = m ~spans:true in
  [
    span "setup.topology_s" "s";
    span "setup.experiment_s" "s";
    span ~listed:false "setup.fabric_s" "s";
    span ~listed:false "setup.faults_s" "s";
    span ~listed:false "flows.path_s" "s";
    span ~listed:false "flows.start_s" "s";
    span ~listed:false "sdn.route_flow_s" "s";
    span ~listed:false "sdn.setup_host_p50_s" "s";
    span ~listed:false "sdn.setup_host_p99_s" "s";
    span "run.self_s" "s";
    span "self.setup_pct" "%";
    span "self.setup.topology_pct" "%";
    span "self.setup.experiment_pct" "%";
    span "self.setup.fabric_pct" "%";
    span "self.setup.faults_pct" "%";
    span "self.run_pct" "%";
    span "self.flows.path_pct" "%";
    span "self.flows.start_pct" "%";
    span "self.sdn.route_flow_pct" "%";
    span "self.fluid.solve_pct" "%";
    span ~listed:false "trace.self_sum_error_pct" "%";
    m "control.converge_pct" "%";
    m "engine.events" "count";
    m ~higher:true "engine.events_per_s" "1/s";
    m "engine.fti_increments" "count";
    m ~higher:true "engine.fti_skipped" "count";
    m "engine.poller_ticks" "count";
    m "engine.transitions" "count";
    m "engine.wall_fti_pct" "%";
    m "engine.wall_des_s" "s";
    m "engine.causal_nodes" "count";
    m "engine.causal_dropped" "count";
    m "cm.messages" "count";
    m "cm.bytes" "B";
    m "cm.channels" "count";
    m "bgp.updates_sent" "count";
    m "bgp.prefixes_sent" "count";
    m ~higher:true "bgp.prefixes_per_update" "ratio";
    m "bgp.withdrawn_sent" "count";
    m "bgp.keepalives_rx" "count";
    m ~higher:true "bgp.attr_intern_hit_ratio" "ratio";
    m "bgp.group_flushes" "count";
    m "bgp.fib_writes" "count";
    m "bgp.converge_virtual_s" "sim_s";
    m "of.packet_ins" "count";
    m "of.flow_mods" "count";
    m "ctrl.flow_mods" "count";
    m ~higher:true "of.microflow_hits" "count";
    m ~higher:true "of.megaflow_hits" "count";
    m "of.tss_hits" "count";
    m "of.lookup_misses" "count";
    m ~higher:true "of.cache_hit_ratio" "ratio";
    m "of.invalidations" "count";
    m "sdn.pending_after_submit" "count";
    m "sdn.setup_virtual_p50_ms" "sim_ms";
    m "sdn.setup_virtual_p99_ms" "sim_ms";
    m "fluid.recompute_requests" "count";
    m "fluid.recomputes" "count";
    m ~higher:true "fluid.coalescing_ratio" "ratio";
    m "fluid.solve_work" "count";
    m "fluid.delta_flows_touched" "count";
    m "fluid.delta_links_touched" "count";
    m "fluid.delta_promotions" "count";
    m "fluid.delta_expansions" "count";
    m "fluid.solve_s" "s";
    m "fluid.solve_share" "ratio";
    m "mu.events" "count";
    m "mu.reroutes" "count";
    m "mu.classes_peak" "count";
    m "faults.injected" "count";
    m "faults.skipped" "count";
    m "faults.pending_end" "count";
    m "faults.reconverge_p50_s" "sim_s";
    m "faults.reconverge_max_s" "sim_s";
    m "gc.minor_words" "words";
    m "gc.promoted_words" "words";
    m "gc.major_words" "words";
    m "gc.minor_collections" "count";
    m "gc.major_collections" "count";
    m "gc.top_heap_mb" "MB";
  ]

let layer_unit name =
  List.find_map
    (fun l -> if l.lm_name = name then Some l.lm_unit else None)
    layer_metrics

(* ------------------------------------------------------------------ *)
(* One rep                                                             *)
(* ------------------------------------------------------------------ *)

type rep = {
  setup_s : float;  (** host wall time from nothing to ready-to-run *)
  run_s : float;  (** host wall time of the unpaced run *)
  converge_s : float option;
      (** host wall time from run start until the control plane is
          ready; [None] without a control plane *)
  peak_rss_mb : float;
  layers : (string * float) list;
  checks : (string * bool) list;
  facts : (string * Json.t) list;
      (** deterministic outputs, compared by the differential test *)
  spans : Spans.span list;
}

let sum_counter reg ?(labels = []) name =
  List.fold_left
    (fun acc (e : Registry.entry) ->
      match e.Registry.metric with
      | Registry.M_counter c
        when e.Registry.name = name
             && List.for_all (fun l -> List.mem l e.Registry.labels) labels ->
          acc + Registry.Counter.value c
      | _ -> acc)
    0 (Registry.to_list reg)

let histogram_sum reg name =
  match Registry.find_histogram reg name with
  | Some h -> Horse_telemetry.Histogram.sum h
  | None -> 0.0

let peak_rss_mb () =
  let from_status s =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
            Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> None)
      (String.split_on_char '\n' s)
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s -> (
      match from_status s with
      | Some mb -> mb
      | None -> invalid_arg "peak_rss_mb: no VmHWM in /proc/self/status")
  | exception Sys_error e -> invalid_arg ("peak_rss_mb: " ^ e)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Metrics every workload reads the same way: the scheduler's run
   statistics, the registry counters of each layer, and the OCaml
   runtime's own GC counters for this child process. Layers a workload
   does not exercise read 0. *)
let common_layers put reg (stats : Sched.stats) causal ~run_s =
  put "engine.events" (fi stats.Sched.events_executed);
  put "engine.events_per_s" (ratio (fi stats.Sched.events_executed) run_s);
  put "engine.fti_increments" (fi stats.Sched.fti_increments);
  put "engine.fti_skipped" (fi stats.Sched.fti_increments_skipped);
  put "engine.poller_ticks" (fi stats.Sched.poller_ticks);
  put "engine.transitions" (fi (List.length stats.Sched.transitions));
  put "engine.wall_fti_pct"
    (100.0 *. ratio stats.Sched.wall_in_fti stats.Sched.wall_total);
  put "engine.wall_des_s" stats.Sched.wall_in_des;
  (match causal with
  | Some c ->
      put "engine.causal_nodes" (fi (Causal.length c));
      put "engine.causal_dropped" (fi (Causal.dropped c))
  | None -> ());
  let c name = fi (sum_counter reg name) in
  put "cm.messages" (c "horse_cm_messages_total");
  put "cm.bytes" (c "horse_cm_bytes_total");
  put "cm.channels" (c "horse_cm_channels_created_total");
  let updates = c "horse_bgp_updates_sent_total" in
  let prefixes = c "horse_bgp_prefixes_sent_total" in
  put "bgp.updates_sent" updates;
  put "bgp.prefixes_sent" prefixes;
  put "bgp.prefixes_per_update" (ratio prefixes updates);
  put "bgp.withdrawn_sent" (c "horse_bgp_withdrawn_prefixes_sent_total");
  put "bgp.keepalives_rx"
    (fi
       (sum_counter reg
          ~labels:[ ("dir", "rx"); ("type", "keepalive") ]
          "horse_bgp_messages_total"));
  let hits = c "horse_bgp_attr_intern_hits_total" in
  put "bgp.attr_intern_hit_ratio"
    (ratio hits (hits +. c "horse_bgp_attrs_interned_total"));
  put "bgp.group_flushes" (c "horse_bgp_group_flushes_total");
  put "of.packet_ins" (c "horse_openflow_packet_ins_total");
  put "of.flow_mods" (c "horse_openflow_flow_mods_total");
  put "ctrl.flow_mods" (c "horse_controller_flow_mods_total");
  let micro = c "horse_openflow_microflow_hits_total" in
  let mega = c "horse_openflow_megaflow_hits_total" in
  let tss = c "horse_openflow_tss_hits_total" in
  let misses = c "horse_openflow_lookup_misses_total" in
  put "of.microflow_hits" micro;
  put "of.megaflow_hits" mega;
  put "of.tss_hits" tss;
  put "of.lookup_misses" misses;
  put "of.cache_hit_ratio" (ratio (micro +. mega) (micro +. mega +. tss +. misses));
  put "of.invalidations" (c "horse_openflow_cache_invalidations_total");
  let solve_s = histogram_sum reg "horse_fluid_recompute_wall_seconds" in
  put "fluid.solve_s" solve_s;
  put "fluid.solve_share" (ratio solve_s run_s);
  let gc = Gc.quick_stat () in
  put "gc.minor_words" gc.Gc.minor_words;
  put "gc.promoted_words" gc.Gc.promoted_words;
  put "gc.major_words" gc.Gc.major_words;
  put "gc.minor_collections" (fi gc.Gc.minor_collections);
  put "gc.major_collections" (fi gc.Gc.major_collections);
  put "gc.top_heap_mb"
    (fi (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)

let fluid_layers put ~requests ~recomputes ~solve_work
    (delta : Fair_share.Delta.stats option) =
  put "fluid.recompute_requests" (fi requests);
  put "fluid.recomputes" (fi recomputes);
  put "fluid.coalescing_ratio" (ratio (fi requests) (fi recomputes));
  put "fluid.solve_work" (fi solve_work);
  match delta with
  | Some d ->
      put "fluid.delta_flows_touched" (fi d.Fair_share.Delta.flows_touched);
      put "fluid.delta_links_touched" (fi d.Fair_share.Delta.links_touched);
      put "fluid.delta_promotions" (fi d.Fair_share.Delta.promotions);
      put "fluid.delta_expansions" (fi d.Fair_share.Delta.expansions)
  | None -> ()

(* The span-derived split of [setup_s + run_s] into self times. The
   fluid solver runs inside the "run" span but is timed by the program
   itself (its recompute histogram), so it is taken out of the run
   span's self time and reported as its own layer. *)
let span_layers put spans ~setup_s ~run_s ~solve_s =
  let self = Spans.self_times spans in
  let get name = Option.value (Hashtbl.find_opt self name) ~default:0.0 in
  let total = setup_s +. run_s in
  let pct v = 100.0 *. ratio v total in
  let run_self = get "run" -. solve_s in
  List.iter
    (fun name -> put (name ^ "_s") (get name))
    [
      "setup.topology"; "setup.experiment"; "setup.fabric"; "setup.faults";
      "flows.path"; "flows.start"; "sdn.route_flow";
    ];
  put "run.self_s" run_self;
  List.iter
    (fun name -> put ("self." ^ name ^ "_pct") (pct (get name)))
    [
      "setup"; "setup.topology"; "setup.experiment"; "setup.fabric";
      "setup.faults"; "flows.path"; "flows.start"; "sdn.route_flow";
    ];
  put "self.run_pct" (pct run_self);
  put "self.fluid.solve_pct" (pct solve_s);
  let sum = Hashtbl.fold (fun _ v acc -> acc +. v) self 0.0 in
  put "trace.self_sum_error_pct" (pct (Float.abs (sum -. total)))

(* Layers a workload does not exercise read 0, so that every rep of
   every workload reports the same metric names. *)
let complete ~traced layers =
  List.filter_map
    (fun l ->
      if l.lm_from_spans && not traced then None
      else
        Some
          (l.lm_name, Option.value (List.assoc_opt l.lm_name layers) ~default:0.0))
    layer_metrics

let collector () =
  let acc = ref [] in
  ((fun name v -> acc := (name, v) :: !acc), fun () -> List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Golden values                                                       *)
(* ------------------------------------------------------------------ *)

(* bench/e2e/golden.json: the seed-independent FIB fingerprint of each
   clean fat-tree size, and megauser-day's event and class counts and
   delivered bits per (classes, seed). Entries that are missing turn
   the corresponding check off; the invariant checks always run. *)
let golden_fib g ~k =
  match
    Option.bind (Json.member "fib_fingerprint" g)
      (Json.member (Printf.sprintf "k=%d" k))
  with
  | Some (Json.String s) -> Some s
  | _ -> None

let golden_megauser g ~classes ~seed =
  Option.bind (Json.member "megauser-day" g)
    (Json.member (Printf.sprintf "classes=%d seed=%d" classes seed))

let json_number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fat-tree workloads                                                  *)
(* ------------------------------------------------------------------ *)

let flow_rate = 1e9

(* The demonstration's flow set, as [Scenario] draws it: one UDP flow
   per server towards a distinct server (seeded derangement), with
   distinct ports so 5-tuple hashing has entropy. *)
let demo_keys exp (ft : Fat_tree.t) =
  Array.mapi
    (fun i ((src : Topology.node), (dst : Topology.node)) ->
      match (src.Topology.ip, dst.Topology.ip) with
      | Some s, Some d ->
          Flow_key.make ~src:s ~dst:d
            ~src_port:(10000 + (i mod 50000))
            ~dst_port:(20000 + (i mod 40000))
            ()
      | None, _ | _, None -> invalid_arg "demo_keys: host without an address")
    (Experiment.permutation_pairs exp ft.Fat_tree.hosts)

let switch_links (ft : Fat_tree.t) =
  let topo = ft.Fat_tree.topo in
  let is_switch (n : Topology.node) =
    match n.Topology.kind with
    | Topology.Switch | Topology.Router -> true
    | Topology.Host -> false
  in
  List.filter_map
    (fun (l : Topology.link) ->
      let src = Topology.node topo l.Topology.src in
      let dst = Topology.node topo l.Topology.dst in
      if l.Topology.link_id < l.Topology.peer && is_switch src && is_switch dst
      then Some (src.Topology.name, dst.Topology.name)
      else None)
    (Topology.links topo)

let storm_plan ~seed (ft : Fat_tree.t) =
  let rng = Rng.create seed in
  let sites = List.filteri (fun i _ -> i mod 7 = 0) (switch_links ft) in
  let victim = ft.Fat_tree.aggs.(0).(0).Topology.name in
  {
    Plan.seed;
    events =
      [
        { Plan.at = Time.of_sec 6.0; action = Plan.Node_crash victim };
        { Plan.at = Time.of_sec 14.0; action = Plan.Node_restart victim };
      ];
    generators =
      List.map
        (fun (a, b) ->
          {
            Plan.g_site = { Plan.a; b };
            g_start = Time.of_sec (5.0 +. Rng.float rng flap_period_s);
            g_stop = Time.of_sec 15.0;
            g_down_for = Time.of_sec 1.5;
            g_flavor = Plan.Periodic (Time.of_sec flap_period_s);
          })
        sites;
  }

type fabric = Bgp of Routed_fabric.t | Sdn of Sdn_fabric.t

let fault_digest inj =
  Digest.to_hex (Digest.string (String.concat "\n" (Injector.trace_labels inj)))

(* The facts the differential test compares against the scenario. *)
let fabric_facts ~fingerprint ~delivered ~messages ~converged_at ~flows ~faults =
  let opt f = function Some v -> f v | None -> Json.Null in
  [
    ("fib_fingerprint", opt (fun s -> Json.String s) fingerprint);
    ("delivered_bits", Json.Float delivered);
    ("control_messages", Json.Int messages);
    ("converged_at_us", opt (fun t -> Json.Int (Time.to_us t)) converged_at);
    ("flows_started", Json.Int flows);
    ("fault_trace", opt (fun i -> Json.String (fault_digest i)) faults);
  ]

let scenario_facts (r : Scenario.result) =
  fabric_facts ~fingerprint:r.Scenario.fib_fingerprint
    ~delivered:r.Scenario.delivered_bits ~messages:r.Scenario.control_messages
    ~converged_at:r.Scenario.converged_at ~flows:r.Scenario.flows_started
    ~faults:r.Scenario.injector

let run_fabric ~spans:sp ~seed ~golden p =
  let traced = Spans.enabled sp in
  let put, layers = collector () in
  let converged_at = ref None and converged_wall = ref Float.nan in
  let setup_virtual = ref [] and setup_host = ref [] in
  let pending_after_submit = ref 0 in
  let (exp, keys, started, fabric, injector), setup_s =
    Wall.time (fun () ->
        Spans.with_span sp "setup" (fun () ->
            let ft =
              Spans.with_span sp "setup.topology" (fun () ->
                  Fat_tree.build ~k:p.k ())
            in
            let exp, keys =
              Spans.with_span sp "setup.experiment" (fun () ->
                  let exp = Experiment.create ~seed ft.Fat_tree.topo in
                  (exp, demo_keys exp ft))
            in
            let sched = Experiment.scheduler exp in
            let fluid = Experiment.fluid exp in
            let started = Flow_key.Table.create 256 in
            let mark_converged () =
              if !converged_at = None then begin
                converged_at := Some (Sched.now sched);
                converged_wall := Wall.now ()
              end
            in
            let start_flow key path =
              if not (Flow_key.Table.mem started key) then
                Flow_key.Table.replace started key
                  (Spans.with_span sp "flows.start" (fun () ->
                       Fluid.start_flow ~demand:flow_rate fluid ~key ~path))
            in
            let setup_bgp () =
              let edge_prefix = Hashtbl.create 64 in
              Array.iteri
                (fun pod edges ->
                  Array.iteri
                    (fun e (edge : Topology.node) ->
                      Hashtbl.replace edge_prefix edge.Topology.id
                        [ Prefix.make (Ipv4.of_octets 10 pod e 0) 24 ])
                    edges)
                ft.Fat_tree.edges;
              let fabric =
                Routed_fabric.build ~cm:(Experiment.cm exp)
                  ~originate:(fun node ->
                    Option.value (Hashtbl.find_opt edge_prefix node) ~default:[])
                  ft.Fat_tree.topo
              in
              Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
              Routed_fabric.when_converged fabric (fun () ->
                  mark_converged ();
                  Array.iter
                    (fun key ->
                      match
                        Spans.with_span sp "flows.path" (fun () ->
                            Routed_fabric.path_for fabric key)
                      with
                      | Ok path -> start_flow key path
                      | Error msg ->
                          Trace.addf (Experiment.trace exp) ~at:(Sched.now sched)
                            ~label:"scenario" "flow %a unroutable: %s"
                            Flow_key.pp key msg)
                    keys);
              Bgp fabric
            in
            let setup_sdn () =
              let fabric =
                Sdn_fabric.build ~cm:(Experiment.cm exp) ~fluid ft.Fat_tree.topo
              in
              let app =
                App_ecmp.install ~mode:App_ecmp.Five_tuple
                  (Sdn_fabric.controller fabric) (Sdn_fabric.env fabric)
              in
              App_ecmp.on_reroute app (fun key path ->
                  match Flow_key.Table.find_opt started key with
                  | None -> ()
                  | Some flow ->
                      ignore
                        (Sched.schedule_after sched (Time.of_ms 2) (fun () ->
                             if flow.Flow.active then Fluid.set_path fluid flow path)));
              let n = Array.length keys in
              Experiment.at exp (Time.of_ms 10) (fun () ->
                  let submitted = Sched.now sched in
                  Array.iter
                    (fun key ->
                      let wall0 = if traced then Wall.now () else 0.0 in
                      Spans.with_span sp "sdn.route_flow" (fun () ->
                          Sdn_fabric.route_flow fabric key ~on_ready:(fun path ->
                              setup_virtual :=
                                Time.to_ms (Time.sub (Sched.now sched) submitted)
                                :: !setup_virtual;
                              if traced then
                                setup_host := (Wall.now () -. wall0) :: !setup_host;
                              start_flow key path;
                              if Flow_key.Table.length started = n then
                                mark_converged ())))
                    keys;
                  pending_after_submit := Sdn_fabric.pending_flows fabric);
              Sdn fabric
            in
            let fabric =
              Spans.with_span sp "setup.fabric" (fun () ->
                  Sched.with_span sched ~name:"setup" (fun () ->
                      match p.kind with
                      | Bgp_fabric | Bgp_storm -> setup_bgp ()
                      | Sdn_fabric -> setup_sdn ()
                      | Megauser_day -> invalid_arg "run_fabric: megauser-day"))
            in
            let injector =
              match (p.kind, fabric) with
              | Bgp_storm, Bgp f ->
                  Some
                    (Spans.with_span sp "setup.faults" (fun () ->
                         Injector.arm sched ~target:(Routed_fabric.fault_target f)
                           (storm_plan ~seed ft)))
              | _ -> None
            in
            Fluid.start_sampling fluid ~every:(Time.of_ms 500);
            (exp, keys, started, fabric, injector)))
  in
  let run_start = Wall.now () in
  let stats, run_s =
    Wall.time (fun () ->
        Spans.with_span sp "run" (fun () -> Experiment.run ~until:p.duration exp))
  in
  let sched = Experiment.scheduler exp in
  let fluid = Experiment.fluid exp in
  let reg = Experiment.registry exp in
  let converge_s = Option.map (fun _ -> !converged_wall -. run_start) !converged_at in
  common_layers put reg stats (Sched.causal sched) ~run_s;
  fluid_layers put ~requests:(Fluid.recompute_requests fluid)
    ~recomputes:(Fluid.recompute_count fluid) ~solve_work:(Fluid.solve_work fluid)
    (Fluid.delta_stats fluid);
  put "control.converge_pct"
    (100.0 *. ratio (Option.value converge_s ~default:0.0) run_s);
  let fingerprint =
    match fabric with
    | Bgp f ->
        put "bgp.fib_writes" (fi (Routed_fabric.fib_routes_installed f));
        Option.iter
          (fun t -> put "bgp.converge_virtual_s" (Time.to_sec t))
          !converged_at;
        Some (Routed_fabric.fib_fingerprint f)
    | Sdn _ ->
        put "sdn.pending_after_submit" (fi !pending_after_submit);
        put "sdn.setup_virtual_p50_ms" (Stats.percentile 0.5 !setup_virtual);
        put "sdn.setup_virtual_p99_ms" (Stats.percentile 0.99 !setup_virtual);
        if traced then begin
          put "sdn.setup_host_p50_s" (Stats.percentile 0.5 !setup_host);
          put "sdn.setup_host_p99_s" (Stats.percentile 0.99 !setup_host)
        end;
        None
  in
  Option.iter
    (fun inj ->
      put "faults.injected" (fi (Injector.injected inj));
      put "faults.skipped" (fi (Injector.skipped inj));
      put "faults.pending_end" (fi (Injector.pending inj));
      let heal =
        List.map
          (fun (_, at, healed) -> Time.to_sec healed -. Time.to_sec at)
          (Injector.reconvergence inj)
      in
      put "faults.reconverge_p50_s" (Stats.percentile 0.5 heal);
      put "faults.reconverge_max_s" (List.fold_left Float.max 0.0 heal))
    injector;
  let spans = Spans.spans sp in
  if traced then
    span_layers put spans ~setup_s ~run_s
      ~solve_s:(histogram_sum reg "horse_fluid_recompute_wall_seconds");
  (* Output checks. *)
  let n = Array.length keys in
  let topo = Experiment.topology exp in
  let within_capacity =
    List.for_all
      (fun (l : Topology.link) ->
        Fluid.link_load fluid l.Topology.link_id
        <= l.Topology.capacity *. (1.0 +. 1e-9))
      (Topology.links topo)
  in
  let golden_fib = Option.bind golden (fun g -> golden_fib g ~k:p.k) in
  let checks =
    [
      ("run_completed", not stats.Sched.aborted);
      ("control_plane_ready", !converged_at <> None);
      ("all_flows_routed", Flow_key.Table.length started = n);
      ("links_within_capacity", within_capacity);
    ]
    @ (match (golden_fib, fingerprint) with
      | Some g, Some f -> [ ("fib_equals_golden", f = g) ]
      | _ -> [])
    @
    match injector with
    | Some inj -> [ ("faults_all_healed", Injector.pending inj = 0) ]
    | None -> []
  in
  {
    setup_s;
    run_s;
    converge_s;
    peak_rss_mb = peak_rss_mb ();
    layers = complete ~traced (layers ());
    checks;
    facts =
      fabric_facts ~fingerprint ~delivered:(Fluid.total_delivered_bits fluid)
        ~messages:(Connection_manager.messages_observed (Experiment.cm exp))
        ~converged_at:!converged_at ~flows:(Flow_key.Table.length started)
        ~faults:injector;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* megauser-day                                                        *)
(* ------------------------------------------------------------------ *)

let run_megauser ~spans:sp ~seed ~golden p =
  let traced = Spans.enabled sp in
  let put, layers = collector () in
  let t0 = Wall.now () in
  let wan = Wan.abilene () in
  let t1 = Wall.now () in
  let r =
    Scenario.run_wan_megauser ~seed ~wan ~classes:p.classes ~duration:p.duration ()
  in
  let setup_s = t1 -. t0 +. r.Scenario.mu_setup_wall_s in
  let run_s = r.Scenario.mu_run_wall_s in
  (* The scenario times its own set-up and run; lay them out as spans
     after the topology build so the split covers the same total. *)
  let setup = Spans.add sp ~name:"setup" ~start:t0 ~stop:(t0 +. setup_s) () in
  ignore (Spans.add sp ~parent:setup ~name:"setup.topology" ~start:t0 ~stop:t1 ());
  ignore
    (Spans.add sp ~parent:setup ~name:"setup.experiment" ~start:t1
       ~stop:(t0 +. setup_s) ());
  ignore
    (Spans.add sp ~name:"run" ~start:(t0 +. setup_s)
       ~stop:(t0 +. setup_s +. run_s) ());
  let reg = r.Scenario.mu_registry in
  common_layers put reg r.Scenario.mu_sched_stats None ~run_s;
  fluid_layers put ~requests:r.Scenario.mu_events ~recomputes:r.Scenario.mu_solves
    ~solve_work:r.Scenario.mu_solve_work r.Scenario.mu_delta;
  put "mu.events" (fi r.Scenario.mu_events);
  put "mu.reroutes" (fi r.Scenario.mu_reroutes);
  put "mu.classes_peak" (fi r.Scenario.mu_classes_peak);
  let spans = Spans.spans sp in
  if traced then
    span_layers put spans ~setup_s ~run_s
      ~solve_s:(histogram_sum reg "horse_fluid_recompute_wall_seconds");
  let delivered = r.Scenario.mu_delivered_bits in
  let golden =
    Option.bind golden (fun g -> golden_megauser g ~classes:p.classes ~seed)
  in
  let recorded name = Option.bind golden (fun g -> json_number (Json.member name g)) in
  let checks =
    [
      ("run_completed", not r.Scenario.mu_sched_stats.Sched.aborted);
      ( "classes_admitted",
        r.Scenario.mu_classes_started >= r.Scenario.mu_classes_peak
        && r.Scenario.mu_classes_peak > 0 );
      ( "solves_coalesced",
        r.Scenario.mu_events >= r.Scenario.mu_solves && r.Scenario.mu_solves > 0 );
      ("bits_delivered", Float.is_finite delivered && delivered > 0.0);
    ]
    @ List.filter_map Fun.id
        [
          Option.map
            (fun v -> ("events_equal_golden", fi r.Scenario.mu_events = v))
            (recorded "events");
          Option.map
            (fun v ->
              ("classes_started_equal_golden", fi r.Scenario.mu_classes_started = v))
            (recorded "classes_started");
          Option.map
            (fun v ->
              ( "delivered_bits_match_golden",
                Float.abs (delivered -. v) <= 1e-9 *. Float.abs v ))
            (recorded "delivered_bits");
        ]
  in
  {
    setup_s;
    run_s;
    converge_s = None;
    peak_rss_mb = peak_rss_mb ();
    layers = complete ~traced (layers ());
    checks;
    facts =
      [
        ("events", Json.Int r.Scenario.mu_events);
        ("classes_started", Json.Int r.Scenario.mu_classes_started);
        ("delivered_bits", Json.Float delivered);
      ];
    spans;
  }

let run ~traced ~seed ~golden p =
  let spans = Spans.create ~enabled:traced in
  match p.kind with
  | Megauser_day -> run_megauser ~spans ~seed ~golden p
  | Bgp_fabric | Bgp_storm | Sdn_fabric -> run_fabric ~spans ~seed ~golden p

(* Host times in reference seconds (see [Speed]): [f] is the rep's
   calibration factor. Simulated times, counts and shares are left
   alone. *)
let rescale f r =
  let scale (name, v) =
    match layer_unit name with
    | Some "s" -> (name, v *. f)
    | Some "1/s" -> (name, v /. f)
    | _ -> (name, v)
  in
  {
    r with
    setup_s = r.setup_s *. f;
    run_s = r.run_s *. f;
    converge_s = Option.map (fun c -> c *. f) r.converge_s;
    layers = List.map scale r.layers;
  }

(* ------------------------------------------------------------------ *)
(* Child <-> parent encoding                                           *)
(* ------------------------------------------------------------------ *)

let rep_to_json r =
  let nums l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
  Json.Obj
    [
      ("setup_s", Json.Float r.setup_s);
      ("run_s", Json.Float r.run_s);
      ( "converge_s",
        match r.converge_s with Some v -> Json.Float v | None -> Json.Null );
      ("peak_rss_mb", Json.Float r.peak_rss_mb);
      ("layers", nums r.layers);
      ("checks", Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) r.checks));
      ("facts", Json.Obj r.facts);
      ("spans", Spans.to_json r.spans);
    ]

let rep_of_json j =
  let num name = json_number (Json.member name j) in
  let obj name =
    match Json.member name j with Some (Json.Obj l) -> l | _ -> []
  in
  match (num "setup_s", num "run_s", num "peak_rss_mb") with
  | Some setup_s, Some run_s, Some peak_rss_mb ->
      Ok
        {
          setup_s;
          run_s;
          converge_s = num "converge_s";
          peak_rss_mb;
          layers =
            List.filter_map
              (fun (k, v) -> Option.map (fun v -> (k, v)) (json_number (Some v)))
              (obj "layers");
          checks =
            List.map
              (fun (k, v) -> (k, match v with Json.Bool b -> b | _ -> false))
              (obj "checks");
          facts = obj "facts";
          spans =
            Spans.of_json (Option.value (Json.member "spans" j) ~default:Json.Null);
        }
  | _ -> Error "rep: missing setup_s, run_s or peak_rss_mb"
