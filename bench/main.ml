(* The benchmark harness: regenerates every evaluation artefact of the
   Horse paper (see DESIGN.md's experiment index), plus ablations and
   Bechamel microbenchmarks.

   Usage:
     main.exe                 run FIG1, FIG3, DEMO-TE, ablations, micro (quick)
     main.exe --full          paper-scale parameters (slower)
     main.exe fig1|fig3|te|ablation-timeout|ablation-increment|micro
*)

open Horse_net
open Horse_engine
open Horse_topo
open Horse_core
open Horse_stats

let fmt = Format.std_formatter

let section title = Format.fprintf fmt "@.== %s ==@.@." title

(* Every artefact records its execution environment — how many domains
   the run used and how many cores the host offers — because wall
   times and speedups are meaningless without them. *)
let env_fields ?(domains = 1) () =
  let module Json = Horse_telemetry.Json in
  [
    ("domains", Json.Int domains);
    ("cores", Json.Int (Domain.recommended_domain_count ()));
  ]

(* Machine-readable telemetry snapshot for one benchmark run: the full
   registry (metrics + spans) as one JSON object in results/. *)
let write_snapshot ?domains name reg =
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "results/BENCH_%s.json" name in
  let oc = open_out path in
  let j =
    match Horse_telemetry.Export.json reg with
    | Horse_telemetry.Json.Obj fields ->
        Horse_telemetry.Json.Obj (env_fields ?domains () @ fields)
    | other -> other
  in
  output_string oc (Horse_telemetry.Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "telemetry snapshot written to %s@." path

(* ------------------------------------------------------------------ *)
(* FIG1: DES/FTI mode transitions for two BGP routers (paper Fig. 1)  *)
(* ------------------------------------------------------------------ *)

type fig1_outcome = {
  stats : Sched.stats;
  messages : int;
  bytes : int;
  registry : Horse_telemetry.Registry.t;
}

let run_fig1 ?(quiet_timeout = Time.of_sec 1.0) ?(fti_increment = Time.of_ms 1)
    ?(prefixes_per_router = 10) ?(duration = Time.of_sec 30.0)
    ?(hold_time = Time.of_sec 90.0) () =
  let wan = Wan.linear 2 in
  let config = { Sched.default_config with Sched.quiet_timeout; fti_increment } in
  let exp = Experiment.create ~config wan.Wan.topo in
  let originate node =
    List.init prefixes_per_router (fun i ->
        Prefix.make (Ipv4.of_octets 20 node i 0) 24)
  in
  let fabric =
    Routed_fabric.build ~cm:(Experiment.cm exp) ~hold_time ~originate
      wan.Wan.topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  let stats = Experiment.run ~until:duration exp in
  {
    stats;
    messages = Connection_manager.messages_observed (Experiment.cm exp);
    bytes = Connection_manager.bytes_observed (Experiment.cm exp);
    registry = Experiment.registry exp;
  }

let fig1 ~full =
  section "FIG1 — execution-mode transitions, two BGP routers (paper Figure 1)";
  let duration = if full then Time.of_sec 120.0 else Time.of_sec 30.0 in
  let o = run_fig1 ~duration () in
  Format.fprintf fmt "scenario: R1 -- R2, eBGP, 10 prefixes each, 90s hold, %a virtual@.@."
    Time.pp duration;
  Format.fprintf fmt "mode timeline:@.";
  Format.fprintf fmt "  [%a] start in DES@." Time.pp Time.zero;
  List.iter
    (fun (tr : Sched.transition) ->
      Format.fprintf fmt "  [%a] %a -> %a (%s)@." Time.pp tr.Sched.at
        Sched.pp_mode tr.Sched.from_mode Sched.pp_mode tr.Sched.to_mode
        tr.Sched.reason)
    o.stats.Sched.transitions;
  Format.fprintf fmt "@.%a@." Sched.pp_stats o.stats;
  Format.fprintf fmt
    "control plane: %d BGP messages (%d bytes) observed by the CM@." o.messages
    o.bytes;
  let v_fti = Time.to_sec o.stats.Sched.virtual_in_fti in
  let v_des = Time.to_sec o.stats.Sched.virtual_in_des in
  let w_fti = o.stats.Sched.wall_in_fti and w_des = o.stats.Sched.wall_in_des in
  Format.fprintf fmt
    "@.shape check: FTI covers %.1f%% of virtual time but %.1f%% of wall time@."
    (100.0 *. v_fti /. Float.max 1e-9 (v_fti +. v_des))
    (100.0 *. w_fti /. Float.max 1e-9 (w_fti +. w_des));
  write_snapshot "fig1" o.registry

(* ------------------------------------------------------------------ *)
(* FIG3: execution time, Horse vs Mininet-like baseline (paper Fig.3) *)
(* ------------------------------------------------------------------ *)

let fig3 ~full =
  section
    "FIG3 — execution time of the demonstration on Horse and the Mininet-like \
     baseline (paper Figure 3)";
  let pods_list = [ 4; 6; 8 ] in
  let duration = if full then Time.of_sec 60.0 else Time.of_sec 20.0 in
  (* Horse runs with FTI pacing 1.0: during control-plane activity the
     clock tracks the real wall clock, exactly as the authors' system
     must (its control plane is real daemons). This is what makes the
     measured Horse wall time meaningful. *)
  let horse_config = { Sched.default_config with Sched.fti_pacing = 1.0 } in
  (* The baseline executes the per-packet engine over a truncated
     window to measure per-packet cost and fidelity; its wall time for
     the full experiment is the real-time emulation model (a container
     emulator runs in real time — overload costs fidelity, not time). *)
  let baseline_window = if full then Time.of_sec 0.2 else Time.of_sec 0.1 in
  Format.fprintf fmt
    "workload: fat-tree (1 Gbps links), permutation UDP at 1 Gbps per server,@.";
  Format.fprintf fmt "          %a virtual; TE cases: %s@.@." Time.pp duration
    (String.concat ", " (List.map Scenario.te_name Scenario.all_te));
  Format.fprintf fmt "%-6s %-10s %12s %12s %12s %10s %10s@." "pods" "system"
    "create(s)" "exec(s)" "total(s)" "slowdown" "goodput";
  let chart = ref [] in
  List.iter
    (fun pods ->
      (* Horse: the three TE experiments, as in the demo. *)
      let horse_results =
        List.map
          (fun te ->
            Scenario.run_fat_tree_te ~config:horse_config ~pods ~te ~duration ())
          Scenario.all_te
      in
      let horse_create =
        List.fold_left
          (fun acc r -> acc +. r.Scenario.setup_wall_s)
          0.0 horse_results
      in
      let horse_exec =
        List.fold_left (fun acc r -> acc +. r.Scenario.run_wall_s) 0.0 horse_results
      in
      let horse_total = horse_create +. horse_exec in
      (* Baseline: bring-up model + real-time execution model + a
         really-executed packet window for fidelity. *)
      let b =
        Horse_baseline.Mininet_model.run_fat_tree ~pods
          ~duration:baseline_window ~realtime_duration:duration ()
      in
      let base_create =
        b.Horse_baseline.Mininet_model.creation_modeled_s
        +. b.Horse_baseline.Mininet_model.creation_real_s
      in
      let base_exec = 3.0 *. b.Horse_baseline.Mininet_model.exec_realtime_s in
      let base_total = base_create +. base_exec in
      let base_goodput =
        b.Horse_baseline.Mininet_model.delivered_bits
        /. Float.max 1.0 b.Horse_baseline.Mininet_model.offered_bits
      in
      let horse_goodput =
        List.fold_left
          (fun acc r ->
            acc +. (r.Scenario.delivered_bits /. r.Scenario.offered_bits))
          0.0 horse_results
        /. float_of_int (List.length horse_results)
      in
      Format.fprintf fmt "%-6d %-10s %12.2f %12.2f %12.2f %10s %9.0f%%@." pods
        "horse" horse_create horse_exec horse_total "1.0x"
        (100.0 *. horse_goodput);
      Format.fprintf fmt "%-6d %-10s %12.2f %12.2f %12.2f %9.1fx %9.0f%%@." pods
        "baseline" base_create base_exec base_total (base_total /. horse_total)
        (100.0 *. base_goodput);
      Format.fprintf fmt
        "       (baseline packet window: %.2fs wall for %a virtual; %d pkts, \
         %d drops, %d hops)@."
        b.Horse_baseline.Mininet_model.exec_wall_s Time.pp baseline_window
        b.Horse_baseline.Mininet_model.packets_delivered
        b.Horse_baseline.Mininet_model.packets_dropped
        b.Horse_baseline.Mininet_model.hops_processed;
      chart :=
        (Printf.sprintf "baseline-%dp" pods, base_total)
        :: (Printf.sprintf "horse-%dp" pods, horse_total)
        :: !chart)
    pods_list;
  Format.fprintf fmt "@.";
  Ascii.bar_chart fmt (List.rev !chart);
  Format.fprintf fmt
    "@.shape check: baseline total > horse total at every size, absolute gap \
     grows with pods (paper: ~5x at 8 pods)@."

(* ------------------------------------------------------------------ *)
(* DEMO-TE: aggregate rate at the hosts per TE approach               *)
(* ------------------------------------------------------------------ *)

let te ~full =
  section
    "DEMO-TE — aggregated rate of all flows arriving at the hosts, per TE \
     approach (the demonstration's final plot)";
  let pods = if full then 8 else 4 in
  let duration = if full then Time.of_sec 60.0 else Time.of_sec 30.0 in
  let sample_every = Time.of_sec 1.0 in
  let results =
    List.map
      (fun te -> (te, Scenario.run_fat_tree_te ~pods ~te ~duration ~sample_every ()))
      (Scenario.all_te @ [ Scenario.P4_ecmp ])
  in
  let n_hosts = (List.hd results |> snd).Scenario.n_hosts in
  Format.fprintf fmt
    "fat-tree %d pods (%d hosts), permutation UDP at 1 Gbps, %a virtual@.@."
    pods n_hosts Time.pp duration;
  Format.fprintf fmt "%-12s %14s %14s %14s %12s %12s@." "te" "mean(Gbps)"
    "peak(Gbps)" "goodput(%)" "ctrl msgs" "converged";
  List.iter
    (fun (te, (r : Scenario.result)) ->
      Format.fprintf fmt "%-12s %14.2f %14.2f %14.1f %12d %12s@."
        (Scenario.te_name te)
        (Series.mean r.Scenario.aggregate /. 1e9)
        (Series.max_value r.Scenario.aggregate /. 1e9)
        (100.0 *. r.Scenario.delivered_bits /. r.Scenario.offered_bits)
        r.Scenario.control_messages
        (match r.Scenario.converged_at with
        | Some at -> Format.asprintf "%a" Time.pp at
        | None -> "never"))
    results;
  Format.fprintf fmt "@.aggregate rate over time (Gbps):@.";
  Ascii.plot ~height:12 fmt
    (List.map
       (fun (te, (r : Scenario.result)) ->
         ( Scenario.te_name te,
           Series.map r.Scenario.aggregate ~f:(fun v -> v /. 1e9) ))
       results);
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "results/te_aggregate_p%d.csv" pods in
  Csv.save_series ~path
    (List.map
       (fun (te, (r : Scenario.result)) ->
         (Scenario.te_name te, r.Scenario.aggregate))
       results);
  Format.fprintf fmt "@.series written to %s@." path;
  List.iter
    (fun (te, (r : Scenario.result)) ->
      write_snapshot
        (Printf.sprintf "te_%s_p%d" (Scenario.te_name te) pods)
        r.Scenario.registry)
    results;
  Format.fprintf fmt
    "@.shape check: hedera >= sdn 5-tuple ecmp >= bgp src/dst ecmp in mean \
     aggregate rate@."

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_timeout () =
  section
    "ABL-TIMEOUT — quiet-timeout sweep on the FIG1 scenario (the paper's \
     'user-defined timeout')";
  Format.fprintf fmt "%-12s %12s %14s %14s %12s@." "timeout" "wall(ms)"
    "fti incr" "virt FTI(s)" "transitions";
  List.iter
    (fun timeout_s ->
      let o = run_fig1 ~quiet_timeout:(Time.of_sec timeout_s) () in
      Format.fprintf fmt "%-12s %12.1f %14d %14.2f %12d@."
        (Printf.sprintf "%.1fs" timeout_s)
        (o.stats.Sched.wall_total *. 1e3)
        o.stats.Sched.fti_increments
        (Time.to_sec o.stats.Sched.virtual_in_fti)
        (List.length o.stats.Sched.transitions))
    [ 0.1; 0.5; 1.0; 2.0; 5.0 ];
  Format.fprintf fmt
    "@.shape check: larger timeout => more FTI time => more wall time, same \
     result@."

let ablation_increment () =
  section "ABL-INCR — FTI increment sweep on the FIG1 scenario";
  Format.fprintf fmt "%-12s %12s %14s %12s@." "increment" "wall(ms)" "fti incr"
    "msgs";
  List.iter
    (fun incr_us ->
      let o = run_fig1 ~fti_increment:(Time.of_us incr_us) () in
      Format.fprintf fmt "%-12s %12.1f %14d %12d@."
        (Format.asprintf "%a" Time.pp (Time.of_us incr_us))
        (o.stats.Sched.wall_total *. 1e3)
        o.stats.Sched.fti_increments o.messages)
    [ 100; 1_000; 10_000; 100_000 ];
  Format.fprintf fmt
    "@.shape check: smaller increments cost proportionally more wall time for \
     the same exchange@."

(* ------------------------------------------------------------------ *)
(* PROTO: BGP vs OSPF control-plane rhythm on a WAN                    *)
(* ------------------------------------------------------------------ *)

let protocols () =
  section
    "PROTO — BGP vs OSPF on the Abilene WAN: the two control-plane rhythms \
     Horse distinguishes";
  let duration = Time.of_sec 60.0 in
  let run_one name build_and_start =
    let wan = Wan.abilene () in
    let exp = Experiment.create wan.Wan.topo in
    let converged = ref None in
    build_and_start wan exp converged;
    let stats = Experiment.run ~until:duration exp in
    let cm = Experiment.cm exp in
    Format.fprintf fmt "%-6s %12s %10d %10d %12d %10.1f%%@." name
      (match !converged with
      | Some at -> Format.asprintf "%a" Time.pp at
      | None -> "never")
      (Connection_manager.messages_observed cm)
      (Connection_manager.bytes_observed cm)
      (List.length stats.Sched.transitions)
      (100.0
      *. Time.to_sec stats.Sched.virtual_in_fti
      /. Time.to_sec stats.Sched.end_time)
  in
  Format.fprintf fmt "%-6s %12s %10s %10s %12s %11s@." "proto" "converged"
    "msgs" "bytes" "transitions" "FTI share";
  run_one "bgp" (fun wan exp converged ->
      let fabric =
        Routed_fabric.build ~cm:(Experiment.cm exp)
          ~hold_time:(Time.of_sec 90.0)
          ~originate:(fun node -> [ Wan.router_prefix wan node ])
          wan.Wan.topo
      in
      Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
      Routed_fabric.when_converged fabric (fun () ->
          converged := Some (Sched.now (Experiment.scheduler exp))));
  run_one "ospf" (fun wan exp converged ->
      let fabric =
        Ospf_fabric.build ~cm:(Experiment.cm exp)
          ~originate:(fun node -> [ (Wan.router_prefix wan node, 0) ])
          wan.Wan.topo
      in
      Experiment.at exp Time.zero (fun () -> Ospf_fabric.start fabric);
      Ospf_fabric.when_converged fabric (fun () ->
          converged := Some (Sched.now (Experiment.scheduler exp))));
  Format.fprintf fmt
    "@.shape check: BGP (90s hold) goes quiet after convergence; OSPF's \
     periodic hellos keep re-entering FTI forever@."

(* ------------------------------------------------------------------ *)
(* ABL-PLACER: Hedera GFF vs Simulated Annealing                       *)
(* ------------------------------------------------------------------ *)

let ablation_placer () =
  section "ABL-PLACER — Hedera's Global First Fit vs Simulated Annealing";
  Format.fprintf fmt "%-12s %-12s %14s %14s@." "pods" "placer" "mean(Gbps)"
    "goodput(%)";
  List.iter
    (fun pods ->
      List.iter
        (fun (name, te) ->
          let r =
            Scenario.run_fat_tree_te ~pods ~te ~duration:(Time.of_sec 30.0) ()
          in
          Format.fprintf fmt "%-12d %-12s %14.2f %14.1f@." pods name
            (Series.mean r.Scenario.aggregate /. 1e9)
            (100.0 *. r.Scenario.delivered_bits /. r.Scenario.offered_bits))
        [ ("gff", Scenario.Hedera_gff); ("annealing", Scenario.Hedera_annealing) ])
    [ 4; 8 ];
  Format.fprintf fmt
    "@.shape check: both placers beat plain ECMP; neither dominates \
     universally (NSDI'10, Fig. 16-17)@."

(* ------------------------------------------------------------------ *)
(* SCALING: Horse-only wall time vs topology size                      *)
(* ------------------------------------------------------------------ *)

(* The multicore A/B: the same 12-pod sharded BGP experiment executed
   by 1, 2 and 4 domains. Whatever the hardware, the determinism
   oracle must hold (byte-identical fingerprint, causal hash, mode
   timelines, fault traces across domain counts); the wall speedup is
   reported against the recorded core count — on a single-core host
   the pool can only add overhead, and the artefact says so. *)
let multicore_scaling () =
  section "MULTICORE — sharded BGP fat-tree across domains (lockstep barriers)";
  let pods = 12 in
  let duration = Time.of_sec 20.0 in
  let cores = Domain.recommended_domain_count () in
  let runs =
    List.map
      (fun domains ->
        (domains, Multicore.run_fat_tree ~pods ~domains ~duration ()))
      [ 1; 2; 4 ]
  in
  let base = List.assoc 1 runs in
  Format.fprintf fmt "%d cores available; pods=%d shards=%d sessions=%d@.@."
    cores pods base.Multicore.shards base.Multicore.sessions_total;
  Format.fprintf fmt "%-8s %10s %10s %8s %8s %12s %8s@." "domains" "wall(s)"
    "speedup" "epochs" "jumps" "cross-msgs" "match";
  let deterministic = ref true in
  List.iter
    (fun (domains, (r : Multicore.result)) ->
      let same =
        r.Multicore.fib_fingerprint = base.Multicore.fib_fingerprint
        && r.Multicore.causal_hash = base.Multicore.causal_hash
        && r.Multicore.timelines = base.Multicore.timelines
        && r.Multicore.fault_trace = base.Multicore.fault_trace
      in
      if not same then deterministic := false;
      Format.fprintf fmt "%-8d %10.3f %10.2f %8d %8d %12d %8s@." domains
        r.Multicore.run_wall_s
        (base.Multicore.run_wall_s /. Float.max 1e-9 r.Multicore.run_wall_s)
        r.Multicore.epochs r.Multicore.jumps r.Multicore.cross_messages
        (if same then "OK" else "DIVERGED"))
    runs;
  let module Json = Horse_telemetry.Json in
  let run_json (domains, (r : Multicore.result)) =
    Json.Obj
      [
        ("domains", Json.Int domains);
        ("run_wall_s", Json.Float r.Multicore.run_wall_s);
        ("setup_wall_s", Json.Float r.Multicore.setup_wall_s);
        ( "speedup_vs_domains1",
          Json.Float
            (base.Multicore.run_wall_s /. Float.max 1e-9 r.Multicore.run_wall_s)
        );
        ("epochs", Json.Int r.Multicore.epochs);
        ("jumps", Json.Int r.Multicore.jumps);
        ("cross_messages", Json.Int r.Multicore.cross_messages);
        ( "converged_s",
          match r.Multicore.converged_at with
          | Some t -> Json.Float (Time.to_sec t)
          | None -> Json.Null );
        ("fib_fingerprint", Json.String r.Multicore.fib_fingerprint);
        ("causal_hash", Json.String r.Multicore.causal_hash);
      ]
  in
  let j =
    Json.Obj
      [
        ("bench", Json.String "multicore");
        ("cores", Json.Int cores);
        ("pods", Json.Int pods);
        ("shards", Json.Int base.Multicore.shards);
        ("partition", Json.String base.Multicore.partition_name);
        ("duration_s", Json.Float (Time.to_sec duration));
        ("sessions", Json.Int base.Multicore.sessions_total);
        ("control_messages", Json.Int base.Multicore.control_messages);
        ("determinism_ok", Json.Bool !deterministic);
        ("runs", Json.List (List.map run_json runs));
      ]
  in
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = "results/BENCH_multicore.json" in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "artifact written to %s@." path;
  if not !deterministic then begin
    Format.fprintf fmt "multicore determinism check FAILED@.";
    exit 1
  end;
  Format.fprintf fmt
    "@.shape check: every domain count reproduces the domains=1 run \
     byte-for-byte; wall speedup tracks the recorded core count (%d here)@."
    cores

let scaling () =
  section "SCALING — Horse wall time vs fat-tree size (no FTI pacing)";
  Format.fprintf fmt "%-6s %8s %10s %12s %14s@." "pods" "hosts" "flows"
    "wall(s)" "ctrl msgs";
  List.iter
    (fun pods ->
      let r =
        Scenario.run_fat_tree_te ~pods ~te:Scenario.Sdn_ecmp
          ~duration:(Time.of_sec 30.0) ()
      in
      Format.fprintf fmt "%-6d %8d %10d %12.3f %14d@." pods
        r.Scenario.n_hosts r.Scenario.flows_started
        (r.Scenario.setup_wall_s +. r.Scenario.run_wall_s)
        r.Scenario.control_messages)
    [ 4; 6; 8; 10; 12 ];
  Format.fprintf fmt
    "@.shape check: wall time grows polynomially with size but stays seconds \
     at 432 hosts — the scalability headroom emulators lack@.";
  multicore_scaling ()

(* ------------------------------------------------------------------ *)
(* FAILURE: traffic during a control-plane fault and repair            *)
(* ------------------------------------------------------------------ *)

let failure () =
  section
    "FAILURE — traffic through a control-plane fault and repair (the \
     experiment Horse exists for)";
  let pods = 4 in
  let duration = Time.of_sec 60.0 in
  let ft = Fat_tree.build ~k:pods () in
  let exp = Experiment.create ft.Fat_tree.topo in
  let fabric =
    Routed_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(Fat_tree.edge_subnets ft) ft.Fat_tree.topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  let fluid = Experiment.fluid exp in
  let edge = ft.Fat_tree.edges.(0).(0) in
  let agg = ft.Fat_tree.aggs.(0).(0) in
  (* Two probe flows into the two hosts behind edge(0,0), from pods 2
     and 3, with source ports chosen so their converged paths enter
     pod 0 through DIFFERENT aggregation switches. Before the fault
     they are disjoint end to end (2 Gbps combined); during the fault
     both must squeeze through the single surviving downlink
     (1 Gbps). *)
  let flows : (Flow_key.t * Horse_dataplane.Flow.t) list ref = ref [] in
  Routed_fabric.when_converged fabric (fun () ->
      let dst0 = Fat_tree.host_ip ft 0 and dst1 = Fat_tree.host_ip ft 1 in
      let src0 = Fat_tree.host_ip ft (2 * pods * pods / 4) in
      let src1 = Fat_tree.host_ip ft (3 * pods * pods / 4) in
      let penultimate path =
        match List.rev path with
        | _last :: (l : Topology.link) :: _ -> l.Topology.src
        | _ -> -1
      in
      let key0 = Flow_key.make ~src:src0 ~dst:dst0 ~src_port:10000 ~dst_port:20000 () in
      let path0 =
        match Routed_fabric.path_for ~hash:Flow_key.hash_5tuple fabric key0 with
        | Ok p -> p
        | Error msg -> failwith msg
      in
      (* Scan source ports until flow 1 takes the other aggregation
         switch into pod 0. *)
      let rec pick port =
        if port > 11000 then failwith "no disjoint port found"
        else
          let key1 =
            Flow_key.make ~src:src1 ~dst:dst1 ~src_port:port ~dst_port:20001 ()
          in
          match Routed_fabric.path_for ~hash:Flow_key.hash_5tuple fabric key1 with
          | Ok path1 when penultimate path1 <> penultimate path0 -> (key1, path1)
          | Ok _ | Error _ -> pick (port + 1)
      in
      let key1, path1 = pick 10001 in
      flows :=
        [
          (key0, Horse_dataplane.Fluid.start_flow fluid ~key:key0 ~path:path0);
          (key1, Horse_dataplane.Fluid.start_flow fluid ~key:key1 ~path:path1);
        ]);
  (* Re-path the probes when the FIBs change, throttled to one sweep
     per 100 ms of virtual time. *)
  let dirty = ref false in
  Routed_fabric.on_fib_change fabric (fun _ _ -> dirty := true);
  ignore
    (Sched.every (Experiment.scheduler exp) (Time.of_ms 100) (fun () ->
         if !dirty then begin
           dirty := false;
           List.iter
             (fun ((key : Flow_key.t), flow) ->
               if flow.Horse_dataplane.Flow.active then
                 match Routed_fabric.path_for ~hash:Flow_key.hash_5tuple fabric key with
                 | Ok path -> Horse_dataplane.Fluid.set_path fluid flow path
                 | Error _ -> ())
             !flows
         end));
  Horse_dataplane.Fluid.start_sampling fluid ~every:(Time.of_sec 1.0);
  Experiment.at exp (Time.of_sec 20.0) (fun () ->
      ignore (Routed_fabric.fail_link fabric ~a:edge.Topology.id ~b:agg.Topology.id));
  Experiment.at exp (Time.of_sec 40.0) (fun () ->
      ignore
        (Routed_fabric.restore_link fabric ~a:edge.Topology.id ~b:agg.Topology.id));
  let stats = Experiment.run ~until:duration exp in
  Format.fprintf fmt
    "fat-tree %d pods; two disjoint 1 Gbps probes into the hosts behind %s;@."
    pods edge.Topology.name;
  Format.fprintf fmt "%s<->%s BGP session cut at 20s, restored at 40s@.@."
    edge.Topology.name agg.Topology.name;
  Format.fprintf fmt "mode timeline around the fault:@.";
  List.iter
    (fun (tr : Sched.transition) ->
      if
        Time.(tr.Sched.at >= Time.of_sec 18.0)
        && Time.(tr.Sched.at <= Time.of_sec 45.0)
      then
        Format.fprintf fmt "  [%a] %a -> %a (%s)@." Time.pp tr.Sched.at
          Sched.pp_mode tr.Sched.from_mode Sched.pp_mode tr.Sched.to_mode
          tr.Sched.reason)
    stats.Sched.transitions;
  Format.fprintf fmt "@.combined probe rate (Gbps):@.";
  Ascii.plot ~height:10 fmt
    [
      ( "probes",
        Series.map
          (Horse_dataplane.Fluid.aggregate_series fluid)
          ~f:(fun v -> v /. 1e9) );
    ];
  Format.fprintf fmt
    "@.shape check: 2 Gbps before the fault, capped at the surviving 1 Gbps \
     downlink during it, back to 2 Gbps after the repair; FTI bursts at both \
     control-plane events@."

(* ------------------------------------------------------------------ *)
(* FCT: flow-completion times under a Poisson workload                 *)
(* ------------------------------------------------------------------ *)

let fct () =
  section
    "FCT — flow-completion times under a Poisson web-search workload: the \
     effect of ECMP hashing granularity";
  let pods = 4 in
  let load_until = Time.of_sec 30.0 and drain_until = Time.of_sec 45.0 in
  let arrival_rate = 400.0 in
  let run name hash_for =
    let ft = Fat_tree.build ~k:pods () in
    let exp = Experiment.create ft.Fat_tree.topo in
    let fabric =
      Routed_fabric.build ~cm:(Experiment.cm exp)
        ~originate:(Fat_tree.edge_subnets ft) ft.Fat_tree.topo
    in
    Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
    ignore (Experiment.run ~until:(Time.of_sec 3.0) exp);
    let gen =
      Traffic.poisson ~exp ~hosts:ft.Fat_tree.hosts
        ~route:(fun key -> Routed_fabric.path_for ~hash:hash_for fabric key)
        ~arrival_rate ~sizes:Traffic.websearch ~until:load_until ()
    in
    ignore (Experiment.run ~until:drain_until exp);
    let fcts = Traffic.fct_seconds gen in
    let slow = Traffic.slowdowns gen in
    Format.fprintf fmt "%-10s %8d %8d %10.2f %10.2f %10.2f %10.2f@." name
      (Traffic.arrivals gen) (Traffic.completions gen)
      (1e3 *. Horse_stats.Summary.percentile fcts 50.0)
      (1e3 *. Horse_stats.Summary.percentile fcts 99.0)
      (Horse_stats.Summary.percentile slow 50.0)
      (Horse_stats.Summary.percentile slow 99.0);
    fcts
  in
  Format.fprintf fmt
    "fat-tree %d pods, websearch sizes, %.0f flows/s for %a, drained to %a@.@."
    pods arrival_rate Time.pp load_until Time.pp drain_until;
  Format.fprintf fmt "%-10s %8s %8s %10s %10s %10s %10s@." "hash" "flows"
    "done" "p50(ms)" "p99(ms)" "slow-p50" "slow-p99";
  ignore (run "src-dst" Flow_key.hash_src_dst);
  let fcts5 = run "5-tuple" Flow_key.hash_5tuple in
  let hist = Horse_stats.Histogram.create_log ~lo:1e-4 ~hi:100.0 () in
  Horse_stats.Histogram.add_list hist fcts5;
  Format.fprintf fmt "@.FCT distribution, 5-tuple hashing (seconds):@.%a"
    Horse_stats.Histogram.pp hist;
  Format.fprintf fmt
    "@.shape check: 5-tuple hashing reduces tail FCT inflation versus \
     src/dst hashing (fewer persistent collisions)@."

(* ------------------------------------------------------------------ *)
(* MEGAUSER: million-user fluid workloads — the delta fair-share       *)
(* solver on the CDN/anycast WAN scenario, at one scale and swept     *)
(* ------------------------------------------------------------------ *)

let megauser_run_json (r : Scenario.megauser_result) =
  let module Json = Horse_telemetry.Json in
  let base =
    [
      ("cities", Json.Int r.Scenario.mu_cities);
      ("sites", Json.Int r.Scenario.mu_sites);
      ("flow_classes", Json.Int r.Scenario.mu_classes_peak);
      ("classes_started", Json.Int r.Scenario.mu_classes_started);
      ("users_peak", Json.Int r.Scenario.mu_users_peak);
      ("events", Json.Int r.Scenario.mu_events);
      ("reroutes", Json.Int r.Scenario.mu_reroutes);
      ("solves", Json.Int r.Scenario.mu_solves);
      ("solve_work_flows", Json.Int r.Scenario.mu_solve_work);
      ( "work_per_event",
        Json.Float
          (float_of_int r.Scenario.mu_solve_work
          /. float_of_int (max 1 r.Scenario.mu_events)) );
      ("run_wall_s", Json.Float r.Scenario.mu_run_wall_s);
      ("delivered_bits", Json.Float r.Scenario.mu_delivered_bits);
    ]
  in
  let delta =
    Option.to_list r.Scenario.mu_delta
    |> List.map (fun (d : Horse_dataplane.Fair_share.Delta.stats) ->
           ( "delta",
             Json.Obj
               [
                 ("solves", Json.Int d.solves);
                 ("events", Json.Int d.events);
                 ("flows_touched", Json.Int d.flows_touched);
                 ("links_touched", Json.Int d.links_touched);
                 ("expansions", Json.Int d.expansions);
                 ("promotions", Json.Int d.promotions);
               ] ))
  in
  Json.Obj (base @ delta)

let megauser ~full =
  section
    "MEGAUSER — million-user CDN workload through the delta fair-share solver";
  let module Json = Horse_telemetry.Json in
  let duration = Time.of_sec 20.0 in
  let ticks = 24 in
  let run ?wan ?sites ~classes ~users () =
    Scenario.run_wan_megauser ?wan ?sites ~classes ~users ~ticks ~duration ()
  in
  let abilene_classes = if full then 20_000 else 5_000 in
  let abilene_users = abilene_classes * 50 in
  Format.fprintf fmt "Abilene: %d peak classes, %d users, %d ticks over %.0fs@.@."
    abilene_classes abilene_users ticks (Time.to_sec duration);
  Format.fprintf fmt "%9s %9s %12s %14s %12s@." "classes" "events" "work"
    "work/event" "wall(s)";
  let abilene = run ~classes:abilene_classes ~users:abilene_users () in
  Format.fprintf fmt "%9d %9d %12d %14.1f %12.3f@." abilene.Scenario.mu_classes_peak
    abilene.Scenario.mu_events abilene.Scenario.mu_solve_work
    (float_of_int abilene.Scenario.mu_solve_work
    /. float_of_int (max 1 abilene.Scenario.mu_events))
    abilene.Scenario.mu_run_wall_s;
  (* Scaling sweep: the WAN footprint grows with the user base (as a
     CDN's does), per-city intensity held constant. Per-event solve
     work staying flat while total flow classes double is the
     sublinearity claim, measured. *)
  let sweep =
    if full then
      [ (25_000, 22); (50_000, 44); (100_000, 88); (140_000, 123) ]
    else [ (6_250, 11); (12_500, 22); (25_000, 44) ]
  in
  Format.fprintf fmt
    "@.scaling sweep (delta solver, WAN grows with the user base):@.@.";
  Format.fprintf fmt "%9s %7s %9s %10s %9s %12s %14s %10s@." "classes" "cities"
    "peak" "users" "events" "work" "work/event" "wall(s)";
  let scaled =
    List.map
      (fun (classes, cities) ->
        let wan, sites =
          if cities <= 11 then (None, 3)
          else
            ( Some
                (Wan.random_gnp ~seed:7 ~n:cities
                   ~p:(4.0 /. float_of_int cities) ()),
              max 3 (cities / 8) )
        in
        let r = run ?wan ~sites ~classes ~users:(classes * 40) () in
        Format.fprintf fmt "%9d %7d %9d %10d %9d %12d %14.1f %10.3f@." classes
          r.Scenario.mu_cities r.Scenario.mu_classes_peak
          r.Scenario.mu_users_peak r.Scenario.mu_events r.Scenario.mu_solve_work
          (float_of_int r.Scenario.mu_solve_work
          /. float_of_int (max 1 r.Scenario.mu_events))
          r.Scenario.mu_run_wall_s;
        (classes, r))
      sweep
  in
  let headline = snd (List.nth scaled (List.length scaled - 1)) in
  (* Every artifact from this verb carries the flow-class count and
     event count it was measured at. *)
  let j =
    Json.Obj
      ([
         ("bench", Json.String "megauser");
         ("full", Json.Bool full);
         ("flow_classes", Json.Int headline.Scenario.mu_classes_peak);
         ("events", Json.Int headline.Scenario.mu_events);
         ("duration_s", Json.Float (Time.to_sec duration));
         ("ticks", Json.Int ticks);
       ]
      @ env_fields ()
      @ [
          ("abilene", megauser_run_json abilene);
          ( "scaling",
            Json.List
              (List.map
                 (fun (classes, r) ->
                   match megauser_run_json r with
                   | Json.Obj fields ->
                       Json.Obj (("classes", Json.Int classes) :: fields)
                   | other -> other)
                 scaled) );
        ])
  in
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = "results/BENCH_megauser.json" in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "@.artifact written to %s@." path;
  Format.fprintf fmt
    "@.shape check: per-event solve work stays flat as classes double@."

(* ------------------------------------------------------------------ *)
(* FAILURE-STORM: the fault plane A/B — clean run vs a deterministic  *)
(* flap storm + node crash on the BGP fabric, the storm replayed to   *)
(* prove same seed + plan => same fault trace and same final FIBs.    *)
(* ------------------------------------------------------------------ *)

let failure_storm ~full =
  section
    "FAILURE-STORM — deterministic fault plane on the BGP fabric (A/B + replay)";
  let module Plan = Horse_faults.Plan in
  let module Injector = Horse_faults.Injector in
  let pods = 4 in
  let duration = if full then Time.of_sec 60.0 else Time.of_sec 30.0 in
  let ft = Fat_tree.build ~k:pods () in
  let is_switch (n : Topology.node) =
    match n.Topology.kind with
    | Topology.Switch | Topology.Router -> true
    | Topology.Host -> false
  in
  let switch_links =
    List.filter_map
      (fun (l : Topology.link) ->
        if l.Topology.link_id < l.Topology.peer then
          let src = Topology.node ft.Fat_tree.topo l.Topology.src in
          let dst = Topology.node ft.Fat_tree.topo l.Topology.dst in
          if is_switch src && is_switch dst then
            Some (src.Topology.name, dst.Topology.name)
          else None
        else None)
      (Topology.links ft.Fat_tree.topo)
  in
  (* Every 7th inter-switch link becomes a Poisson flap source; one
     aggregation switch silently crashes and comes back 8 s later
     (hold time 9 s, so peers detect the crash via hold expiry and the
     revived speaker rejoins via ConnectRetry). *)
  let sites = List.filteri (fun i _ -> i mod 7 = 0) switch_links in
  let victim = ft.Fat_tree.aggs.(0).(0).Topology.name in
  let plan =
    let storm =
      Plan.flap_storm ~seed:7 ~sites ~start:(Time.of_sec 5.0)
        ~stop:(Time.div duration 2) ~rate:0.3
        ~down_for:(Time.of_sec 1.5) ()
    in
    {
      storm with
      Plan.events =
        [
          { Plan.at = Time.of_sec 6.0; action = Plan.Node_crash victim };
          { Plan.at = Time.of_sec 14.0; action = Plan.Node_restart victim };
        ];
    }
  in
  Format.fprintf fmt
    "workload: fat-tree k=%d, bgp-ecmp, %a virtual; %d flap sites (Poisson \
     0.3/s, down 1.5s), crash %s at 6s, restart at 14s@.@."
    pods Time.pp duration (List.length sites) victim;
  let run ?faults () =
    Scenario.run_fat_tree_te ~seed:42 ?faults ~pods ~te:Scenario.Bgp_ecmp
      ~duration ()
  in
  let delivered (r : Scenario.result) =
    100.0 *. r.Scenario.delivered_bits /. Float.max 1.0 r.Scenario.offered_bits
  in
  let clean = run () in
  let storm1 = run ~faults:plan () in
  let storm2 = run ~faults:plan () in
  let inj1 = Option.get storm1.Scenario.injector in
  let inj2 = Option.get storm2.Scenario.injector in
  Format.fprintf fmt "%-10s %12s %12s %10s %10s@." "run" "delivered" "wall(s)"
    "faults" "skipped";
  let row name (r : Scenario.result) inj =
    Format.fprintf fmt "%-10s %11.1f%% %12.3f %10s %10s@." name (delivered r)
      r.Scenario.run_wall_s
      (match inj with
      | Some i -> string_of_int (Injector.injected i)
      | None -> "-")
      (match inj with
      | Some i -> string_of_int (Injector.skipped i)
      | None -> "-")
  in
  row "clean" clean None;
  row "storm" storm1 (Some inj1);
  row "replay" storm2 (Some inj2);
  let recon = Injector.reconvergence inj1 in
  let durations =
    List.map (fun (_, at, healed) -> Time.to_sec healed -. Time.to_sec at) recon
  in
  (match durations with
  | [] -> Format.fprintf fmt "@.no reconvergence samples (fabric never broke?)@."
  | ds ->
      let n = float_of_int (List.length ds) in
      Format.fprintf fmt
        "@.reconvergence: %d faults healed, mean %.3fs, max %.3fs@."
        (List.length ds)
        (List.fold_left ( +. ) 0.0 ds /. n)
        (List.fold_left Float.max 0.0 ds));
  let traces_equal = Injector.trace_labels inj1 = Injector.trace_labels inj2 in
  let fib_equal =
    storm1.Scenario.fib_fingerprint = storm2.Scenario.fib_fingerprint
    && storm1.Scenario.fib_fingerprint <> None
  in
  Format.fprintf fmt
    "determinism: fault traces %s (%d events), final FIBs %s (%s)@."
    (if traces_equal then "IDENTICAL" else "DIVERGED")
    (List.length (Injector.trace inj1))
    (if fib_equal then "IDENTICAL" else "DIVERGED")
    (Option.value storm1.Scenario.fib_fingerprint ~default:"-");
  let module Json = Horse_telemetry.Json in
  let j =
    Json.Obj
      [
        ("bench", Json.String "failure_storm");
        ("domains", Json.Int 1);
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("pods", Json.Int pods);
        ("duration_s", Json.Float (Time.to_sec duration));
        ("plan", Plan.to_json plan);
        ( "clean",
          Json.Obj
            [
              ("delivered_pct", Json.Float (delivered clean));
              ("run_wall_s", Json.Float clean.Scenario.run_wall_s);
            ] );
        ( "storm",
          Json.Obj
            [
              ("delivered_pct", Json.Float (delivered storm1));
              ("run_wall_s", Json.Float storm1.Scenario.run_wall_s);
              ("injected", Json.Int (Injector.injected inj1));
              ("skipped", Json.Int (Injector.skipped inj1));
              ("still_healing", Json.Int (Injector.pending inj1));
              ("faults", Injector.report_json inj1);
            ] );
        ( "determinism",
          Json.Obj
            [
              ("trace_equal", Json.Bool traces_equal);
              ("fib_equal", Json.Bool fib_equal);
              ( "fib_fingerprint",
                match storm1.Scenario.fib_fingerprint with
                | Some f -> Json.String f
                | None -> Json.Null );
              ( "trace",
                Json.List
                  (List.map
                     (fun s -> Json.String s)
                     (Injector.trace_labels inj1)) );
            ] );
      ]
  in
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = "results/BENCH_failure_storm.json" in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "artifact written to %s@." path;
  Format.fprintf fmt
    "@.shape check: every fault heals (control-plane faults; the fluid data \
     plane keeps forwarding), and the replay reproduces the fault trace and \
     the final FIBs bit-for-bit@."

(* ------------------------------------------------------------------ *)
(* TRACE-OVERHEAD: causal tracing A/B on the fault-storm workload —   *)
(* the "zero-cost when disabled, cheap when on" claim, measured. Wall  *)
(* times are min-of-5, sides interleaved: in one process later runs   *)
(* pay earlier runs' GC debt, so a second block measures slower —      *)
(* an ordering artifact bigger than the overhead being measured.       *)
(* ------------------------------------------------------------------ *)

let trace_overhead ~full =
  section "TRACE-OVERHEAD — causal tracing on/off on the fault-storm workload";
  let module Plan = Horse_faults.Plan in
  let module Causal = Horse_engine.Causal in
  let pods = 4 in
  let duration = if full then Time.of_sec 60.0 else Time.of_sec 30.0 in
  let ft = Fat_tree.build ~k:pods () in
  let is_switch (n : Topology.node) =
    match n.Topology.kind with
    | Topology.Switch | Topology.Router -> true
    | Topology.Host -> false
  in
  let sites =
    List.filteri
      (fun i _ -> i mod 7 = 0)
      (List.filter_map
         (fun (l : Topology.link) ->
           if l.Topology.link_id < l.Topology.peer then
             let src = Topology.node ft.Fat_tree.topo l.Topology.src in
             let dst = Topology.node ft.Fat_tree.topo l.Topology.dst in
             if is_switch src && is_switch dst then
               Some (src.Topology.name, dst.Topology.name)
             else None
           else None)
         (Topology.links ft.Fat_tree.topo))
  in
  let victim = ft.Fat_tree.aggs.(0).(0).Topology.name in
  let plan =
    let storm =
      Plan.flap_storm ~seed:7 ~sites ~start:(Time.of_sec 5.0)
        ~stop:(Time.div duration 2) ~rate:0.3 ~down_for:(Time.of_sec 1.5) ()
    in
    {
      storm with
      Plan.events =
        [
          { Plan.at = Time.of_sec 6.0; action = Plan.Node_crash victim };
          { Plan.at = Time.of_sec 14.0; action = Plan.Node_restart victim };
        ];
    }
  in
  let run ~causal =
    Scenario.run_fat_tree_te ~seed:42
      ~config:{ Sched.default_config with Sched.causal }
      ~faults:plan ~pods ~te:Scenario.Bgp_ecmp ~duration ()
  in
  let reps = 5 in
  let off, on_ =
    let pick b r =
      match b with
      | Some (b : Scenario.result)
        when b.Scenario.run_wall_s <= r.Scenario.run_wall_s ->
          Some b
      | _ -> Some r
    in
    (* one discarded warmup per side settles allocator state *)
    ignore (run ~causal:false);
    ignore (run ~causal:true);
    let off = ref None and on_ = ref None in
    for _ = 1 to reps do
      off := pick !off (run ~causal:false);
      on_ := pick !on_ (run ~causal:true)
    done;
    (Option.get !off, Option.get !on_)
  in
  let overhead_pct =
    100.0 *. ((on_.Scenario.run_wall_s /. off.Scenario.run_wall_s) -. 1.0)
  in
  let graph = off.Scenario.causal in
  assert (graph = None);
  let g = Option.get on_.Scenario.causal in
  let nodes = Causal.length g and dropped = Causal.dropped g in
  let chained =
    List.length
      (List.filter
         (fun (_, _, c) -> not (Causal.is_none c))
         on_.Scenario.fib_provenance)
  in
  let fib_equal =
    on_.Scenario.fib_fingerprint = off.Scenario.fib_fingerprint
    && on_.Scenario.fib_fingerprint <> None
  in
  Format.fprintf fmt "%-10s %10s %14s %14s@." "causal" "wall(s)" "graph nodes"
    "fib entries";
  Format.fprintf fmt "%-10s %10.3f %14s %14d@." "off" off.Scenario.run_wall_s
    "-"
    (List.length off.Scenario.fib_provenance);
  Format.fprintf fmt "%-10s %10.3f %14d %14d@." "on" on_.Scenario.run_wall_s
    nodes
    (List.length on_.Scenario.fib_provenance);
  Format.fprintf fmt
    "@.overhead %.1f%% wall (min of %d); %d/%d FIB entries carry a provenance \
     chain; graph %d nodes (%d dropped); results %s@."
    overhead_pct reps chained
    (List.length on_.Scenario.fib_provenance)
    nodes dropped
    (if fib_equal then "IDENTICAL" else "DIVERGED");
  let module Json = Horse_telemetry.Json in
  let run_json (r : Scenario.result) =
    Json.Obj
      [
        ("run_wall_s", Json.Float r.Scenario.run_wall_s);
        ("events_executed", Json.Int r.Scenario.sched_stats.Sched.events_executed);
        ( "fib_fingerprint",
          match r.Scenario.fib_fingerprint with
          | Some f -> Json.String f
          | None -> Json.Null );
      ]
  in
  let j =
    Json.Obj
      [
        ("bench", Json.String "trace_overhead");
        ("domains", Json.Int 1);
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("pods", Json.Int pods);
        ("duration_s", Json.Float (Time.to_sec duration));
        ("reps", Json.Int reps);
        ("off", run_json off);
        ("on", run_json on_);
        ("overhead_pct", Json.Float overhead_pct);
        ("causal_nodes", Json.Int nodes);
        ("causal_dropped", Json.Int dropped);
        ("causal_hash", Json.String (Causal.hash g));
        ("fib_entries", Json.Int (List.length on_.Scenario.fib_provenance));
        ("fib_entries_with_chain", Json.Int chained);
        ("fib_equal", Json.Bool fib_equal);
      ]
  in
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = "results/BENCH_trace_overhead.json" in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "artifact written to %s@." path;
  Format.fprintf fmt
    "@.shape check: <=10%% wall overhead with tracing on, identical results \
     either way, and every BGP-learned FIB entry chains back to a cause@."

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* CLASSIFIER-STORM: the OpenFlow lookup hierarchy (microflow /       *)
(* megaflow / classifier) against the preserved linear reference      *)
(* scan, at 100k+ rules — with a flow_mod churn phase driving cache  *)
(* invalidation.                                                      *)
(* ------------------------------------------------------------------ *)

let classifier_storm ~full =
  section
    "CLASSIFIER-STORM — lookup hierarchy vs linear scan, 100k+ rules";
  let module OF = Horse_openflow in
  let module VTime = Horse_engine.Time in
  let module Reg = Horse_telemetry.Registry in
  let n_rules = if full then 250_000 else 100_000 in
  let n_probes = if full then 400_000 else 200_000 in
  let n_verify = 400 in
  let n_ref_probes = 150 in
  let n_churn = 2_000 in
  (* Rule universe in disjoint address spaces so churn deletes are
     surgical under loose-overlap semantics: exact 5-tuple rules move
     traffic to 11.0.0.0/8, dst-prefix rules own 20.0.0.0/8, and
     port/proto rules use ports >= 60000 (exact rules stay below). *)
  let exact_key i =
    Flow_key.make
      ~src:(Ipv4.of_octets 10 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF))
      ~dst:(Ipv4.of_octets 11 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF))
      ~src_port:(1000 + (i mod 40000))
      ~dst_port:(1000 + ((i * 7) mod 40000))
      ()
  in
  let mk_fm ?(command = OF.Ofmsg.Add) ~cookie ~priority match_ =
    {
      OF.Ofmsg.match_;
      cookie;
      command;
      idle_timeout_s = 0;
      hard_timeout_s = 0;
      priority;
      actions = [ OF.Action.Output ((cookie mod 16) + 1) ];
    }
  in
  let rule_fm i =
    match i mod 10 with
    | 8 ->
        let j = i / 10 in
        let len = if j mod 10 = 0 then 16 else 24 in
        let dst =
          Prefix.make
            (Ipv4.of_octets 20 ((j lsr 8) land 0xFF) (j land 0xFF) 0)
            len
        in
        mk_fm ~cookie:i ~priority:(40 + (j mod 20)) (OF.Ofmatch.to_dst dst)
    | 9 ->
        mk_fm ~cookie:i ~priority:30
          {
            OF.Ofmatch.any with
            OF.Ofmatch.m_ip_proto = Some 17;
            m_tp_dst = Some (60000 + (i / 10 mod 5000));
          }
    | _ -> mk_fm ~cookie:i ~priority:100 (OF.Ofmatch.exact_5tuple (exact_key i))
  in
  (* Deterministic probe streams: 85% a 256-flow hot set (microflow
     territory), 10% the 20/8 prefix space (megaflow classes), 5%
     guaranteed misses in 30/8. *)
  let prng = Rng.create 1337 in
  let fields_of key = OF.Ofmatch.fields_of_key ~in_port:1 key in
  let hot =
    Array.init 256 (fun j -> fields_of (exact_key ((j * 37 mod (n_rules / 10)) * 10)))
  in
  let warm =
    Array.init 64 (fun j ->
        fields_of
          (Flow_key.make
             ~src:(Ipv4.of_octets 10 9 9 (j land 0xFF))
             ~dst:(Ipv4.of_octets 20 ((j * 13 mod 40) lsr 8 land 0xFF) (j * 13 mod 40 land 0xFF) 9)
             ~src_port:5 ~dst_port:6 ()))
  in
  let cold =
    Array.init 64 (fun j ->
        fields_of
          (Flow_key.make
             ~src:(Ipv4.of_octets 30 0 0 1)
             ~dst:(Ipv4.of_octets 30 1 (j land 0xFF) 2)
             ~src_port:7 ~dst_port:8 ()))
  in
  let probes =
    Array.init n_probes (fun _ ->
        let r = Rng.int prng 100 in
        if r < 85 then hot.(Rng.int prng 256)
        else if r < 95 then
          (* Same traffic class through a different ingress port: no
             rule masks in_port, so these land in one megaflow region
             but are distinct microflows. *)
          let f = warm.(Rng.int prng 64) in
          { f with OF.Ofmatch.in_port = 1 + Rng.int prng 16 }
        else cold.(Rng.int prng 64))
  in
  let verify =
    Array.init n_verify (fun _ ->
        match Rng.int prng 4 with
        | 0 -> hot.(Rng.int prng 256)
        | 1 -> warm.(Rng.int prng 64)
        | 2 -> cold.(Rng.int prng 64)
        | _ -> fields_of (exact_key (Rng.int prng (2 * n_rules))))
  in
  let fingerprint lookup t =
    let buf = Buffer.create (n_verify * 8) in
    Array.iter
      (fun flds ->
        (match lookup t flds with
        | Some (e : OF.Flow_table.entry) ->
            Buffer.add_string buf (string_of_int e.OF.Flow_table.cookie)
        | None -> Buffer.add_char buf '-');
        Buffer.add_char buf ';')
      verify;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let median l = Summary.percentile l 0.5 in
  let reg = Reg.create () in
  let t = OF.Flow_table.create () in
  let (), build_wall =
    Wall.time (fun () ->
        for i = 0 to n_rules - 1 do
          OF.Flow_table.apply_flow_mod t ~now:VTime.zero (rule_fm i)
        done)
  in
  (* Byte-identical forwarding decisions, hierarchy vs reference. *)
  let fp_fast = fingerprint OF.Flow_table.lookup t in
  let fp_ref = fingerprint OF.Flow_table.lookup_reference t in
  if fp_fast <> fp_ref then
    failwith "classifier-storm: decision fingerprints diverge";
  (* Reference: per-probe wall medians (each probe is a full linear
     scan, so individual timing is well above clock resolution). *)
  let ref_times =
    List.init n_ref_probes (fun k ->
        let f = probes.(k * (n_probes / n_ref_probes)) in
        let (), dt = Wall.time (fun () -> ignore (OF.Flow_table.lookup_reference t f)) in
        dt)
  in
  let ref_median = median ref_times in
  (* Hierarchy: batched medians over 1000-lookup chunks. *)
  let chunk = 1000 in
  let fast_times = ref [] in
  let i = ref 0 in
  while !i + chunk <= n_probes do
    let lo = !i in
    let (), dt =
      Wall.time (fun () ->
          for j = lo to lo + chunk - 1 do
            ignore (OF.Flow_table.lookup t probes.(j))
          done)
    in
    fast_times := (dt /. float_of_int chunk) :: !fast_times;
    i := !i + chunk
  done;
  let fast_median = median !fast_times in
  let st = OF.Flow_table.stats t in
  let hit_ratio =
    float_of_int (st.OF.Flow_table.micro_hits + st.OF.Flow_table.mega_hits)
    /. float_of_int (max 1 st.OF.Flow_table.lookups)
  in
  (* Churn: interleaved precise deletes and fresh adds with traffic,
     driving seq-tagged and overlap-driven cache invalidation; the
     differential must still hold on the churned table. *)
  let crng = Rng.create 4242 in
  let inv0 = st.OF.Flow_table.invalidations in
  for k = 0 to n_churn - 1 do
    (if k mod 3 = 0 then
       let i = Rng.int crng (n_rules / 10) * 10 in
       OF.Flow_table.apply_flow_mod t ~now:VTime.zero
         (mk_fm ~command:OF.Ofmsg.Delete ~cookie:0 ~priority:0
            (OF.Ofmatch.exact_5tuple (exact_key i)))
     else
       OF.Flow_table.apply_flow_mod t ~now:VTime.zero
         (mk_fm ~cookie:(n_rules + k) ~priority:100
            (OF.Ofmatch.exact_5tuple (exact_key (n_rules + k)))));
    if k mod 7 = 0 then
      for _ = 1 to 10 do
        ignore (OF.Flow_table.lookup t hot.(Rng.int crng 256))
      done
  done;
  let churn_inv = st.OF.Flow_table.invalidations - inv0 in
  let fp_fast' = fingerprint OF.Flow_table.lookup t in
  let fp_ref' = fingerprint OF.Flow_table.lookup_reference t in
  if fp_fast' <> fp_ref' then
    failwith "classifier-storm: post-churn decision fingerprints diverge";
  let speedup = ref_median /. fast_median in
  Format.fprintf fmt
    "build %.2fs | ref median %8.1f us | hierarchy median %7.1f ns | \
     speedup %8.1fx@."
    build_wall (ref_median *. 1e6) (fast_median *. 1e9) speedup;
  Format.fprintf fmt
    "hits micro/mega/slow %d/%d/%d  misses %d  hit-ratio %.3f  \
     churn invalidations %d  fingerprints ok@."
    st.OF.Flow_table.micro_hits st.OF.Flow_table.mega_hits
    st.OF.Flow_table.slow_hits st.OF.Flow_table.misses hit_ratio churn_inv;
  let g name v = Reg.Gauge.set (Reg.gauge reg ~subsystem:"classifier" name) v in
  let c name v = Reg.Counter.add (Reg.counter reg ~subsystem:"classifier" name) v in
  g "ref_median_seconds" ref_median;
  g "hierarchy_median_seconds" fast_median;
  g "speedup" speedup;
  g "hit_ratio" hit_ratio;
  g "build_seconds" build_wall;
  c "rules_total" n_rules;
  c "lookups_total" st.OF.Flow_table.lookups;
  c "microflow_hits_total" st.OF.Flow_table.micro_hits;
  c "megaflow_hits_total" st.OF.Flow_table.mega_hits;
  c "slow_path_hits_total" st.OF.Flow_table.slow_hits;
  c "misses_total" st.OF.Flow_table.misses;
  c "churn_invalidations_total" churn_inv;
  c "fingerprint_equal" 1;
  if speedup < 10.0 then
    Format.fprintf fmt
      "WARNING: median speedup below the 10x acceptance budget@.";
  write_snapshot "classifier_storm" reg

let micro () =
  section "MICRO — component microbenchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let module VTime = Horse_engine.Time in
  let test_event_queue =
    Test.make ~name:"event-queue 1k schedule+pop"
      (Staged.stage (fun () ->
           let q = Event_queue.create () in
           for i = 0 to 999 do
             ignore
               (Event_queue.schedule q (VTime.of_us (i * 7 mod 997)) (fun () -> ()))
           done;
           let rec drain () =
             match Event_queue.pop q with Some _ -> drain () | None -> ()
           in
           drain ()))
  in
  let ft8 = Fat_tree.build ~k:8 () in
  let permutation_paths =
    let acc = ref [] in
    let rng = Rng.create 7 in
    let n = Array.length ft8.Fat_tree.hosts in
    let dsts = Rng.derangement rng n in
    Array.iteri
      (fun i (h : Topology.node) ->
        let t = Spf.shortest_tree ft8.Fat_tree.topo ~src:h.Topology.id in
        match
          Spf.first_path t ft8.Fat_tree.topo
            ~dst:ft8.Fat_tree.hosts.(dsts.(i)).Topology.id
        with
        | Some p -> acc := p :: !acc
        | None -> ())
      ft8.Fat_tree.hosts;
    !acc
  in
  let flow_links =
    List.map
      (List.map (fun (l : Topology.link) -> l.Topology.link_id))
      permutation_paths
  in
  let test_fair_share =
    let module Delta = Horse_dataplane.Fair_share.Delta in
    Test.make ~name:"max-min 128 flows k=8 (delta, from scratch)"
      (Staged.stage (fun () ->
           let d =
             Delta.create
               ~capacity:(fun l ->
                 (Topology.link ft8.Fat_tree.topo l).Topology.capacity)
               ()
           in
           List.iteri
             (fun id links -> Delta.add_flow d ~id ~demand:1e9 ~links)
             flow_links;
           Delta.flush d))
  in
  let test_fat_tree =
    Test.make ~name:"fat-tree build k=8"
      (Staged.stage (fun () -> ignore (Fat_tree.build ~k:8 ())))
  in
  let bgp_update =
    Horse_bgp.Msg.Update
      {
        Horse_bgp.Msg.withdrawn = [];
        reach =
          Some
            ( {
                Horse_bgp.Msg.origin = Horse_bgp.Msg.Igp;
                as_path = [ 65001; 65002; 65003 ];
                next_hop = Ipv4.of_octets 10 0 0 1;
                med = None;
                local_pref = None;
                communities = [];
              },
              List.init 10 (fun i -> Prefix.make (Ipv4.of_octets 10 i 0 0) 24) );
      }
  in
  let test_bgp_codec =
    Test.make ~name:"bgp codec 10-prefix UPDATE"
      (Staged.stage (fun () ->
           match Horse_bgp.Msg.decode (Horse_bgp.Msg.encode bgp_update) with
           | Ok _ -> ()
           | Error e -> failwith e))
  in
  let table =
    let t = Horse_openflow.Flow_table.create () in
    for i = 0 to 99 do
      Horse_openflow.Flow_table.apply_flow_mod t ~now:VTime.zero
        {
          Horse_openflow.Ofmsg.match_ =
            Horse_openflow.Ofmatch.exact_5tuple
              (Flow_key.make
                 ~src:(Ipv4.of_octets 10 0 0 (i + 1))
                 ~dst:(Ipv4.of_octets 10 1 0 (i + 1))
                 ~src_port:i ~dst_port:i ());
          cookie = 0;
          command = Horse_openflow.Ofmsg.Add;
          idle_timeout_s = 0;
          hard_timeout_s = 0;
          priority = 10;
          actions = [ Horse_openflow.Action.Output 1 ];
        }
    done;
    t
  in
  let lookup_fields =
    Horse_openflow.Ofmatch.fields_of_key
      (Flow_key.make
         ~src:(Ipv4.of_octets 10 0 0 50)
         ~dst:(Ipv4.of_octets 10 1 0 50)
         ~src_port:49 ~dst_port:49 ())
  in
  let test_of_lookup =
    Test.make ~name:"of-table lookup among 100"
      (Staged.stage (fun () ->
           ignore (Horse_openflow.Flow_table.lookup table lookup_fields)))
  in
  let big_table =
    let t = Horse_openflow.Flow_table.create () in
    for i = 0 to 99_999 do
      Horse_openflow.Flow_table.apply_flow_mod t ~now:VTime.zero
        {
          Horse_openflow.Ofmsg.match_ =
            Horse_openflow.Ofmatch.exact_5tuple
              (Flow_key.make
                 ~src:(Ipv4.of_octets 10 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF))
                 ~dst:(Ipv4.of_octets 11 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF))
                 ~src_port:(i mod 40000) ~dst_port:(i mod 40000) ());
          cookie = i;
          command = Horse_openflow.Ofmsg.Add;
          idle_timeout_s = 0;
          hard_timeout_s = 0;
          priority = 10;
          actions = [ Horse_openflow.Action.Output 1 ];
        }
    done;
    t
  in
  let big_lookup_fields =
    Horse_openflow.Ofmatch.fields_of_key
      (Flow_key.make
         ~src:(Ipv4.of_octets 10 0 0 77)
         ~dst:(Ipv4.of_octets 11 0 0 77)
         ~src_port:77 ~dst_port:77 ())
  in
  let test_of_lookup_100k =
    Test.make ~name:"of-table lookup among 100k (hierarchy)"
      (Staged.stage (fun () ->
           ignore (Horse_openflow.Flow_table.lookup big_table big_lookup_fields)))
  in
  let frame =
    Packet.udp ~src_mac:(Mac.of_index 1) ~dst_mac:(Mac.of_index 2)
      ~src:(Ipv4.of_octets 10 0 0 1) ~dst:(Ipv4.of_octets 10 0 0 2)
      ~src_port:1111 ~dst_port:2222 (Bytes.make 1400 'x')
  in
  let test_packet_codec =
    Test.make ~name:"packet codec 1400B UDP"
      (Staged.stage (fun () ->
           match Packet.decode (Packet.encode frame) with
           | Ok _ -> ()
           | Error e -> failwith e))
  in
  let tests =
    Test.make_grouped ~name:"horse"
      [
        test_event_queue;
        test_fair_share;
        test_fat_tree;
        test_bgp_codec;
        test_of_lookup;
        test_of_lookup_100k;
        test_packet_codec;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.5) ~kde:(Some 1000)
      ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let merged = Analyze.merge ols instances [ results ] in
  Hashtbl.iter
    (fun _metric by_test ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) by_test []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Format.fprintf fmt "%-45s %14.1f ns/run@." name est
          | Some _ | None -> Format.fprintf fmt "%-45s %14s@." name "n/a")
        rows)
    merged

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let full = List.mem "--full" args in
  let known =
    [ "fig1"; "fig3"; "te"; "ablation-timeout"; "ablation-increment";
      "protocols"; "ablation-placer"; "scaling"; "fct"; "failure";
      "failure-storm"; "trace-overhead";
      "multicore"; "classifier-storm"; "megauser"; "micro" ]
  in
  let commands = List.filter (fun a -> List.mem a known) args in
  let commands = if commands = [] then known else commands in
  List.iter
    (fun cmd ->
      match cmd with
      | "fig1" -> fig1 ~full
      | "fig3" -> fig3 ~full
      | "te" -> te ~full
      | "ablation-timeout" -> ablation_timeout ()
      | "ablation-increment" -> ablation_increment ()
      | "protocols" -> protocols ()
      | "ablation-placer" -> ablation_placer ()
      | "scaling" -> scaling ()
      | "fct" -> fct ()
      | "failure" -> failure ()
      | "failure-storm" -> failure_storm ~full
      | "trace-overhead" -> trace_overhead ~full
      | "multicore" -> multicore_scaling ()
      | "classifier-storm" -> classifier_storm ~full
      | "megauser" -> megauser ~full
      | "micro" -> micro ()
      | _ -> ())
    commands
