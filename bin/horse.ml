(* The horse command-line interface: build topologies and run the
   paper's experiments without writing OCaml — the ergonomic
   equivalent of the original implementation's Python API. *)

open Cmdliner
open Horse_engine
open Horse_topo
open Horse_core

(* --- shared arguments -------------------------------------------------- *)

(* [conv] restricted to values satisfying [ok]: anything else is a
   one-line usage error at parse time, not an exception from inside
   the run. *)
let checked conv ~expect ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" expect s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let non_negative = checked Arg.float ~expect:"a value >= 0" (fun v -> v >= 0.0)

let pods_arg =
  let doc = "Fat-Tree pods (even, >= 2)." in
  let pods =
    checked Arg.int ~expect:"an even number >= 2" (fun k ->
        k >= 2 && k mod 2 = 0)
  in
  Arg.(value & opt pods 4 & info [ "p"; "pods" ] ~docv:"PODS" ~doc)

let duration_arg =
  let doc = "Virtual experiment duration in seconds." in
  let duration =
    checked Arg.float ~expect:"a finite value > 0" (fun v ->
        Float.is_finite v && v > 0.0)
  in
  Arg.(value & opt duration 30.0 & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc)

let seed_arg =
  let doc = "Random seed (traffic permutation etc.)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let quiet_timeout_arg =
  let doc = "Control-plane quiet timeout before returning to DES, seconds." in
  Arg.(
    value & opt non_negative 1.0
    & info [ "quiet-timeout" ] ~docv:"SECONDS" ~doc)

(* The scheduler counts in whole microseconds. *)
let increment_of_ms ms = Time.of_sec (ms /. 1000.0)

let increment_arg =
  let doc = "FTI increment, milliseconds (at least 0.001, one microsecond)." in
  let increment =
    checked Arg.float ~expect:"at least 0.001 (1 us)" (fun ms ->
        Time.to_us (increment_of_ms ms) >= 1)
  in
  Arg.(value & opt increment 1.0 & info [ "fti-increment" ] ~docv:"MS" ~doc)

let max_wall_arg =
  let doc =
    "Watchdog: abort the run after $(docv) wall-clock seconds (0 = off), \
     flushing telemetry so a partial report survives."
  in
  Arg.(value & opt non_negative 0.0 & info [ "max-wall" ] ~docv:"SECONDS" ~doc)

let no_causal_arg =
  let doc =
    "Disable causal tracing (provenance chains, $(b,--explain), Perfetto \
     causal tracks)."
  in
  Arg.(value & flag & info [ "no-causal" ] ~doc)

let sched_config quiet_timeout increment_ms max_wall no_causal =
  {
    Sched.default_config with
    Sched.quiet_timeout = Time.of_sec quiet_timeout;
    fti_increment = increment_of_ms increment_ms;
    max_wall_s = max_wall;
    causal = not no_causal;
  }

let warn_aborted (stats : Sched.stats) =
  if stats.Sched.aborted then
    Format.eprintf
      "horse: watchdog abort — wall-clock budget exhausted at %a virtual; \
       results below are partial@."
      Time.pp stats.Sched.end_time

(* --- fault plans ------------------------------------------------------- *)

let faults_arg =
  let doc =
    "Arm the fault-injection plan in $(docv) (JSON; link flaps, node \
     crashes, partitions, impairments — see Horse_faults.Plan)."
  in
  Arg.(value & opt (some file) None & info [ "faults" ] ~docv:"PLAN" ~doc)

let load_faults = function
  | None -> None
  | Some path -> (
      match Horse_faults.Plan.load_file path with
      | Ok plan -> Some plan
      | Error msg ->
          Format.eprintf "horse: cannot load fault plan %s: %s@." path msg;
          exit 1)

let pp_fault_summary fmt inj =
  let module I = Horse_faults.Injector in
  Format.fprintf fmt "faults: %d injected, %d skipped, %d still healing@."
    (I.injected inj) (I.skipped inj) (I.pending inj);
  List.iter
    (fun (label, at, healed) ->
      Format.fprintf fmt "  [%a] %s -> reconverged in %.3fs@." Time.pp at label
        (Time.to_sec healed -. Time.to_sec at))
    (I.reconvergence inj)

(* --- telemetry output -------------------------------------------------- *)

let metrics_out_arg =
  let doc = "Write the final metrics snapshot to $(docv) (Prometheus text)." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write the event trace to $(docv): JSON lines by default, or a \
     Chrome-trace-event file loadable at ui.perfetto.dev when $(docv) ends \
     in .perfetto.json."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let report_arg =
  let doc = "Print the human run report (counters, gauges, histograms, spans)." in
  Arg.(value & flag & info [ "report" ] ~doc)

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* Shared epilogue: export the registry as requested by the three
   flags above. [stats] and [causal] feed the Perfetto exporter when
   the trace path asks for it. *)
let emit_telemetry ?stats ?causal ~metrics_out ~trace_out ~report reg =
  let module Export = Horse_telemetry.Export in
  let write what pp path =
    try
      Export.to_file ~path pp reg;
      Format.printf "%s written to %s@." what path
    with Sys_error msg ->
      Format.eprintf "horse: cannot write %s: %s@." what msg;
      exit 1
  in
  Option.iter (write "metrics" Export.prometheus) metrics_out;
  Option.iter
    (fun path ->
      match (ends_with ~suffix:".perfetto.json" path, stats) with
      | true, Some (st : Sched.stats) ->
          Horse_causal.Perfetto.write ~path ?graph:causal
            ~spans:
              (Horse_telemetry.Span.records (Horse_telemetry.Registry.spans reg))
            ~transitions:st.Sched.transitions ~end_time:st.Sched.end_time ();
          Format.printf
            "perfetto trace written to %s (load it at ui.perfetto.dev)@." path
      | _ -> write "trace" Export.jsonl path)
    trace_out;
  if report then Format.printf "@.%a@." Horse_stats.Report.pp reg

(* --- te ----------------------------------------------------------------- *)

let te_conv =
  let parse s =
    match s with
    | "bgp" | "bgp-ecmp" -> Ok Scenario.Bgp_ecmp
    | "sdn" | "sdn-ecmp" -> Ok Scenario.Sdn_ecmp
    | "hedera" | "hedera-gff" -> Ok Scenario.Hedera_gff
    | "hedera-sa" -> Ok Scenario.Hedera_annealing
    | "p4" | "p4-ecmp" -> Ok Scenario.P4_ecmp
    | _ -> Error (`Msg (Printf.sprintf "unknown TE approach %S" s))
  in
  Arg.conv (parse, fun fmt te -> Format.pp_print_string fmt (Scenario.te_name te))

let te_cmd =
  let te_arg =
    let doc = "TE approach: bgp, sdn, hedera, hedera-sa, p4." in
    Arg.(value & opt te_conv Scenario.Bgp_ecmp & info [ "t"; "te" ] ~docv:"TE" ~doc)
  in
  let csv_arg =
    let doc = "Write the aggregate-rate series to $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let explain_arg =
    let doc =
      "Explain each reconvergence: walk the causal graph from every FIB \
       entry back to the fault that triggered it and print the critical \
       path with per-hop virtual-time latencies."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  (* P4 has no fault surface: a plan for it is refused before the run. *)
  let te_and_faults =
    let check te faults =
      match (te, faults) with
      | Scenario.P4_ecmp, Some _ ->
          `Error (true, "option '--faults': p4-ecmp has no fault target")
      | _ -> `Ok (te, faults)
    in
    Term.(ret (const check $ te_arg $ faults_arg))
  in
  let run pods (te, faults) duration seed quiet_timeout increment max_wall
      no_causal csv explain metrics_out trace_out report =
    let result =
      Scenario.run
        (Spec.make ~seed
           ~config:(sched_config quiet_timeout increment max_wall no_causal)
           ?faults:(load_faults faults)
           ~duration:(Time.of_sec duration)
           (Spec.Fat_tree pods) te)
    in
    Format.printf "%a@." Scenario.pp_result result;
    Format.printf "@.%a@." Sched.pp_stats result.Scenario.sched_stats;
    warn_aborted result.Scenario.sched_stats;
    Option.iter (pp_fault_summary Format.std_formatter) result.Scenario.injector;
    if explain then begin
      match result.Scenario.causal with
      | None ->
          Format.printf
            "explain: causal tracing is disabled (--no-causal); nothing to \
             walk@."
      | Some graph ->
          let provenance =
            List.map
              (fun (node, prefix, cause) ->
                (node, Horse_net.Prefix.to_string prefix, cause))
              result.Scenario.fib_provenance
          in
          let reconvergence =
            match result.Scenario.injector with
            | None -> []
            | Some inj -> Horse_faults.Injector.reconvergence inj
          in
          Format.printf "@.%a@." Horse_causal.Explain.pp_report
            (Horse_causal.Explain.attribute ~graph ~provenance ~reconvergence)
    end;
    Option.iter
      (fun path ->
        Horse_stats.Csv.save_series ~path
          [ (Scenario.te_name te, result.Scenario.aggregate) ];
        Format.printf "series written to %s@." path)
      csv;
    emit_telemetry ~stats:result.Scenario.sched_stats
      ?causal:result.Scenario.causal ~metrics_out ~trace_out ~report
      result.Scenario.registry
  in
  let doc = "Run one fat-tree traffic-engineering experiment on Horse." in
  Cmd.v
    (Cmd.info "te" ~doc)
    Term.(
      const run $ pods_arg $ te_and_faults $ duration_arg $ seed_arg
      $ quiet_timeout_arg $ increment_arg $ max_wall_arg $ no_causal_arg
      $ csv_arg $ explain_arg
      $ metrics_out_arg $ trace_out_arg $ report_arg)

(* --- fig1 ---------------------------------------------------------------- *)

let fig1_cmd =
  let prefixes_arg =
    let doc = "Prefixes originated by each router." in
    Arg.(value & opt int 10 & info [ "prefixes" ] ~docv:"N" ~doc)
  in
  let run duration quiet_timeout increment max_wall no_causal faults prefixes
      metrics_out trace_out report =
    let r =
      Scenario.run
        (Spec.make ~traffic:Spec.No_traffic
           ~config:(sched_config quiet_timeout increment max_wall no_causal)
           ?faults:(load_faults faults) ~hold_time:(Time.of_sec 90.0)
           ~duration:(Time.of_sec duration)
           (Spec.Linear { routers = 2; prefixes })
           Spec.Bgp_ecmp)
    in
    let stats = r.Scenario.sched_stats in
    warn_aborted stats;
    Option.iter (pp_fault_summary Format.std_formatter) r.Scenario.injector;
    Format.printf "mode timeline:@.";
    List.iter (Format.printf "  %a@." Sched.pp_transition) stats.Sched.transitions;
    Format.printf "@.%a@." Sched.pp_stats stats;
    emit_telemetry ~stats ?causal:r.Scenario.causal ~metrics_out ~trace_out
      ~report r.Scenario.registry
  in
  let doc = "Two-router BGP mode-transition demo (the paper's Figure 1)." in
  Cmd.v
    (Cmd.info "fig1" ~doc)
    Term.(
      const run $ duration_arg $ quiet_timeout_arg $ increment_arg
      $ max_wall_arg $ no_causal_arg $ faults_arg $ prefixes_arg
      $ metrics_out_arg $ trace_out_arg $ report_arg)

(* --- baseline ------------------------------------------------------------- *)

let baseline_cmd =
  let rate_arg =
    let doc = "Per-flow rate, bits per second." in
    Arg.(value & opt float 1e9 & info [ "rate" ] ~docv:"BPS" ~doc)
  in
  let pkt_arg =
    let doc = "Packet size in bytes." in
    Arg.(value & opt int 1500 & info [ "pkt-bytes" ] ~docv:"BYTES" ~doc)
  in
  let stack_arg =
    let doc = "Disable the per-hop frame encode/decode work." in
    Arg.(value & flag & info [ "no-stack-work" ] ~doc)
  in
  let run pods duration seed rate pkt_bytes no_stack =
    let r =
      Horse_baseline.Mininet_model.run_fat_tree ~pods ~seed ~rate
        ~pkt_bytes ~stack_work:(not no_stack)
        ~duration:(Time.of_sec duration)
        ()
    in
    Format.printf "%a@." Horse_baseline.Mininet_model.pp_result r
  in
  let doc = "Run the Mininet-like per-packet baseline (Figure 3 comparator)." in
  Cmd.v
    (Cmd.info "baseline" ~doc)
    Term.(
      const run $ pods_arg $ duration_arg $ seed_arg $ rate_arg $ pkt_arg
      $ stack_arg)

(* --- wan --------------------------------------------------------------------- *)

let wan_cmd =
  let topo_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ "abilene" ] -> Ok Spec.Abilene
      | [ "ring"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 3 -> Ok (Spec.Ring n)
          | Some _ | None -> Error (`Msg "ring needs n >= 3"))
      | [ "random"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 2 -> Ok (Spec.Gnp n)
          | Some _ | None -> Error (`Msg "random needs n >= 2"))
      | _ -> Error (`Msg "expected abilene, ring:N or random:N")
    in
    Arg.conv (parse, Scenario.pp_topology)
  in
  let topo_arg =
    let doc = "WAN topology: abilene, ring:N or random:N." in
    Arg.(value & opt topo_conv Spec.Abilene & info [ "w"; "wan" ] ~docv:"TOPO" ~doc)
  in
  let fail_arg =
    let doc =
      "Kill router $(docv) at one third of the run (hold-timer detection and \
       reconvergence follow)."
    in
    Arg.(value & opt (some int) None & info [ "kill" ] ~docv:"ROUTER" ~doc)
  in
  (* The victim's range depends on the topology, so [--kill] is checked
     against the router count, still before the run starts. *)
  let topo_and_victim =
    let check topology kill =
      let n =
        match topology with
        | Spec.Ring n | Spec.Gnp n -> n
        | _ -> Array.length (Wan.abilene ()).Wan.routers
      in
      match kill with
      | Some v when v < 0 || v >= n ->
          `Error
            ( true,
              Printf.sprintf
                "option '--kill': expected a router index in 0..%d, got %d"
                (n - 1) v )
      | _ -> `Ok (topology, kill)
    in
    Term.(ret (const check $ topo_arg $ fail_arg))
  in
  let run (topology, kill) duration seed quiet_timeout increment max_wall
      no_causal faults metrics_out trace_out report =
    (* The kill is one more fault-plan event; router i is named r<i>. *)
    let faults =
      let module Plan = Horse_faults.Plan in
      match (load_faults faults, kill) with
      | plan, None -> plan
      | plan, Some victim ->
          let plan = Option.value plan ~default:Plan.empty in
          let at = Time.of_sec (duration /. 3.0) in
          let crash = Plan.Node_crash (Printf.sprintf "r%d" victim) in
          Some { plan with Plan.events = plan.Plan.events @ [ { Plan.at; action = crash } ] }
    in
    let r =
      Scenario.run
        (Spec.make ~seed
           ~config:(sched_config quiet_timeout increment max_wall no_causal)
           ?faults ~hold_time:(Time.of_sec 30.0)
           ~sample_every:(Time.of_sec 1.0)
           ~duration:(Time.of_sec duration)
           topology Spec.Bgp_ecmp)
    in
    Option.iter
      (Format.printf "[%a] converged; starting permutation traffic@." Time.pp)
      r.Scenario.converged_at;
    List.iter (fun (_, msg) -> Format.printf "unroutable: %s@." msg) r.Scenario.unroutable;
    List.iter
      (fun (at, key) ->
        Format.printf "[%a] flow %a unroutable for 2s; stopping@." Time.pp at
          Horse_net.Flow_key.pp key)
      r.Scenario.stopped;
    let stats = r.Scenario.sched_stats in
    warn_aborted stats;
    Option.iter (pp_fault_summary Format.std_formatter) r.Scenario.injector;
    Format.printf "@.%a@.@.%a@." Sched.pp_timeline stats Sched.pp_stats stats;
    Format.printf "@.aggregate rate (Gbps):@.";
    Horse_stats.Ascii.plot ~height:10 Format.std_formatter
      [
        ( "aggregate",
          Horse_stats.Series.map r.Scenario.aggregate ~f:(fun v -> v /. 1e9) );
      ];
    emit_telemetry ~stats ?causal:r.Scenario.causal ~metrics_out ~trace_out
      ~report r.Scenario.registry
  in
  let doc = "Run BGP + fluid traffic on a WAN topology (optionally kill a router)." in
  Cmd.v
    (Cmd.info "wan" ~doc)
    Term.(
      const run $ topo_and_victim $ duration_arg $ seed_arg $ quiet_timeout_arg
      $ increment_arg $ max_wall_arg $ no_causal_arg $ faults_arg
      $ metrics_out_arg $ trace_out_arg $ report_arg)

(* --- megauser -------------------------------------------------------------- *)

let megauser_cmd =
  let classes_arg =
    let doc = "Peak number of concurrent flow classes." in
    Arg.(value & opt int 20_000 & info [ "classes" ] ~docv:"N" ~doc)
  in
  let users_arg =
    let doc = "Total users represented at peak." in
    Arg.(value & opt int 1_000_000 & info [ "users" ] ~docv:"N" ~doc)
  in
  let user_demand_arg =
    let doc = "Per-user demand, bits per second." in
    Arg.(value & opt float 150e3 & info [ "user-demand" ] ~docv:"BPS" ~doc)
  in
  let cities_arg =
    let doc =
      "Build a random connected WAN with $(docv) cities instead of Abilene \
       (average degree 4)."
    in
    Arg.(value & opt (some int) None & info [ "cities" ] ~docv:"N" ~doc)
  in
  let sites_arg =
    let doc = "Anycast CDN replica sites." in
    Arg.(value & opt int 3 & info [ "sites" ] ~docv:"N" ~doc)
  in
  let ticks_arg =
    let doc = "Diurnal schedule granularity (ticks per day)." in
    Arg.(value & opt int 48 & info [ "ticks" ] ~docv:"N" ~doc)
  in
  let headroom_arg =
    let doc = "Capacity-planning headroom over expected peak link load." in
    Arg.(value & opt float 1.1 & info [ "headroom" ] ~docv:"FACTOR" ~doc)
  in
  let run duration seed classes users user_demand cities sites ticks headroom
      metrics_out report =
    let wan =
      Option.map
        (fun n -> Wan.random_gnp ~seed ~n ~p:(4.0 /. float_of_int n) ())
        cities
    in
    let r =
      Scenario.run_wan_megauser ~seed ?wan ~classes ~users
        ~user_demand ~headroom ~sites ~ticks
        ~duration:(Time.of_sec duration) ()
    in
    Format.printf "%a@." Scenario.pp_megauser_result r;
    Format.printf "@.aggregate rate (Gbps):@.";
    Horse_stats.Ascii.plot ~height:10 Format.std_formatter
      [
        ( "aggregate",
          Horse_stats.Series.map r.Scenario.mu_aggregate ~f:(fun v ->
              v /. 1e9) );
      ];
    Option.iter
      (fun (d : Horse_dataplane.Fair_share.Delta.stats) ->
        Format.printf
          "@.delta solver: %d solves, %d flows touched, %d links touched, %d \
           expansions, %d promotions@."
          d.solves d.flows_touched d.links_touched d.expansions d.promotions)
      r.Scenario.mu_delta;
    emit_telemetry ~stats:r.Scenario.mu_sched_stats ~metrics_out
      ~trace_out:None ~report r.Scenario.mu_registry
  in
  let doc =
    "Run the million-user CDN/anycast workload (gravity traffic matrix, \
     diurnal flow-class churn, mid-day replica drain) through the delta \
     fair-share solver."
  in
  Cmd.v
    (Cmd.info "megauser" ~doc)
    Term.(
      const run $ duration_arg $ seed_arg $ classes_arg $ users_arg
      $ user_demand_arg $ cities_arg $ sites_arg $ ticks_arg $ headroom_arg
      $ metrics_out_arg $ report_arg)

(* --- topo ------------------------------------------------------------------ *)

let topo_cmd =
  let run pods =
    let ft = Fat_tree.build ~k:pods () in
    let topo = ft.Fat_tree.topo in
    Format.printf "fat-tree k=%d: %d hosts, %d switches, %d duplex links@." pods
      (Array.length ft.Fat_tree.hosts)
      (List.length (Topology.switches topo))
      (Topology.n_links topo / 2);
    Format.printf "first host: %a@." Topology.pp_node ft.Fat_tree.hosts.(0);
    let tree =
      Spf.shortest_tree topo ~src:ft.Fat_tree.hosts.(0).Topology.id
    in
    let last = Array.length ft.Fat_tree.hosts - 1 in
    Format.printf "equal-cost paths %s -> %s: %d@."
      ft.Fat_tree.hosts.(0).Topology.name ft.Fat_tree.hosts.(last).Topology.name
      (List.length
         (Spf.ecmp_paths ~max_paths:1000 tree topo
            ~dst:ft.Fat_tree.hosts.(last).Topology.id))
  in
  let doc = "Print a fat-tree topology summary." in
  Cmd.v (Cmd.info "topo" ~doc) Term.(const run $ pods_arg)

(* --------------------------------------------------------------------------- *)

let () =
  let doc = "Horse: hybrid control-plane emulation / data-plane simulation" in
  let info = Cmd.info "horse" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            te_cmd; fig1_cmd; baseline_cmd; wan_cmd;
            megauser_cmd; topo_cmd;
          ]))
