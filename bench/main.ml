(* The benchmark harness: regenerates every evaluation artefact of the
   Horse paper (see DESIGN.md's experiment index), plus ablations and
   Bechamel microbenchmarks.

   Usage:
     main.exe [--full] [VERB ...]

   With no verb it runs every verb below, in this order; --full selects
   paper-scale parameters (slower) where a verb has them. Verbs:
     fig1 fig3 te ablation-timeout ablation-increment protocols
     ablation-placer scaling fct failure micro
   An unknown verb exits 2 and runs nothing.
*)

open Horse_net
open Horse_engine
open Horse_topo
open Horse_core
open Horse_stats

let fmt = Format.std_formatter

let section title = Format.fprintf fmt "@.== %s ==@.@." title

(* Machine-readable telemetry snapshot for one benchmark run: the full
   registry (metrics + spans) as one JSON object in results/. It
   records how many domains the run used and how many cores the host
   offers, because wall times and speedups are meaningless without
   them. *)
let write_snapshot name reg =
  let module Json = Horse_telemetry.Json in
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "results/BENCH_%s.json" name in
  let oc = open_out path in
  let j =
    match Horse_telemetry.Export.json reg with
    | Json.Obj fields ->
        Json.Obj
          (("domains", Json.Int 1)
          :: ("cores", Json.Int (Domain.recommended_domain_count ()))
          :: fields)
    | other -> other
  in
  output_string oc (Json.to_string j);
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
     measured Horse wall time meaningful: its exec column is the pacing
     deadline of each FTI episode plus the DES work. *)
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
    "@.shape check: larger timeout => more FTI time and increments, same \
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
    "@.shape check: the increment changes only the counted increments and the \
     transition grid; the exchange is the same@."

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
     at 432 hosts — the scalability headroom emulators lack@."

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
     (1 Gbps). The ports are chosen 1 s after convergence: the FIBs
     resolve every subnet before every ECMP group holds all its
     members, and a disjoint pair needs the full groups. *)
  let flows : (Flow_key.t * Horse_dataplane.Flow.t) list ref = ref [] in
  let sched = Experiment.scheduler exp in
  Routed_fabric.when_converged fabric (fun () ->
    Experiment.at exp (Time.add (Sched.now sched) (Time.of_sec 1.0)) (fun () ->
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
        ]));
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
(* Microbenchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

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
    Test.make ~name:"of-table lookup among 100k (tss)"
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

(* In run order: a bare [main.exe] runs them all. *)
let verbs =
  [
    ("fig1", fig1);
    ("fig3", fig3);
    ("te", te);
    ("ablation-timeout", fun ~full:_ -> ablation_timeout ());
    ("ablation-increment", fun ~full:_ -> ablation_increment ());
    ("protocols", fun ~full:_ -> protocols ());
    ("ablation-placer", fun ~full:_ -> ablation_placer ());
    ("scaling", fun ~full:_ -> scaling ());
    ("fct", fun ~full:_ -> fct ());
    ("failure", fun ~full:_ -> failure ());
    ("micro", fun ~full:_ -> micro ());
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let names = List.filter (fun a -> a <> "--full") args in
  (match List.filter (fun a -> not (List.mem_assoc a verbs)) names with
  | [] -> ()
  | unknown ->
      Printf.eprintf "main.exe: unknown verb %s; known verbs: %s\n"
        (String.concat ", " unknown)
        (String.concat " " (List.map fst verbs));
      exit 2);
  let names = if names = [] then List.map fst verbs else names in
  List.iter (fun name -> (List.assoc name verbs) ~full) names
