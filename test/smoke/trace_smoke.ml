(* Causal-tracing smoke: the 22-fault storm TE scenario run with
   tracing on vs off.

   Gates, failing @trace-smoke (and @runtest with it):
   - wall overhead of tracing <= 10% (min-of-3 per side, plus a small
     absolute slack against timer noise on loaded CI machines);
   - tracing is invisible to the experiment: identical final FIB
     fingerprint either way;
   - every BGP-learned FIB entry after the storm carries a provenance
     chain (non-none cause, nonempty chain ending at its fib:write);
   - determinism: two traced runs produce byte-identical causal-graph
     hashes.

   Writes both sides' numbers to the path given as argv(1). *)

module Time = Horse_engine.Time
module Sched = Horse_engine.Sched
module Causal = Horse_engine.Causal
module Scenario = Horse_core.Scenario
module Json = Horse_telemetry.Json

let overhead_budget = 0.10
let wall_slack_s = 0.05
let reps = 3

(* The shared smoke storm: 22 fault events over a 20s virtual run. *)
let plan = Horse_test_support.smoke_storm_plan ()

let run ~causal =
  Scenario.run_fat_tree_te ~pods:4 ~te:Scenario.Bgp_ecmp
    ~config:{ Sched.default_config with Sched.causal }
    ~faults:plan ~duration:(Time.of_sec 20.0) ()

(* Reps are interleaved (off, on, off, on, ...) rather than run as two
   blocks: within one process the GC debt of earlier runs is paid by
   later ones, so whichever block runs second looks slower — an
   ordering artifact worth several times the real overhead. *)
let measure () =
  let pick b r =
    match b with
    | Some (b : Scenario.result) when b.Scenario.run_wall_s <= r.Scenario.run_wall_s ->
        Some b
    | _ -> Some r
  in
  ignore (run ~causal:false);
  ignore (run ~causal:true);
  let off = ref None and traced = ref None in
  for _ = 1 to reps do
    off := pick !off (run ~causal:false);
    traced := pick !traced (run ~causal:true)
  done;
  (Option.get !off, Option.get !traced)

let () =
  let out = Sys.argv.(1) in
  let off, traced = measure () in
  let g = Option.get traced.Scenario.causal in
  let prov = traced.Scenario.fib_provenance in
  let overhead =
    (traced.Scenario.run_wall_s /. off.Scenario.run_wall_s) -. 1.0
  in
  let oc = open_out out in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("off_wall_s", Json.Float off.Scenario.run_wall_s);
            ("on_wall_s", Json.Float traced.Scenario.run_wall_s);
            ( "off_events",
              Json.Int off.Scenario.sched_stats.Sched.events_executed );
            ( "on_events",
              Json.Int traced.Scenario.sched_stats.Sched.events_executed );
            ( "off_ticks",
              Json.Int off.Scenario.sched_stats.Sched.poller_ticks );
            ( "on_ticks",
              Json.Int traced.Scenario.sched_stats.Sched.poller_ticks );
            ( "off_ffwd",
              Json.Int off.Scenario.sched_stats.Sched.fti_increments_skipped );
            ( "on_ffwd",
              Json.Int traced.Scenario.sched_stats.Sched.fti_increments_skipped );
            ("overhead", Json.Float overhead);
            ("causal_nodes", Json.Int (Causal.length g));
            ("causal_dropped", Json.Int (Causal.dropped g));
            ("causal_hash", Json.String (Causal.hash g));
            ("fib_entries", Json.Int (List.length prov));
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "trace-smoke: wall %.3fs -> %.3fs (%.1f%% overhead), %d causal nodes, %d \
     FIB entries with provenance\n"
    off.Scenario.run_wall_s traced.Scenario.run_wall_s (100.0 *. overhead)
    (Causal.length g) (List.length prov);
  if
    traced.Scenario.run_wall_s
    > ((1.0 +. overhead_budget) *. off.Scenario.run_wall_s) +. wall_slack_s
  then begin
    Printf.eprintf
      "trace-smoke: tracing overhead budget missed: %.3fs > %.3fs + %.0f%% — \
       a causal primitive grew a cost on the hot path?\n"
      traced.Scenario.run_wall_s off.Scenario.run_wall_s
      (100.0 *. overhead_budget);
    exit 1
  end;
  if
    traced.Scenario.fib_fingerprint <> off.Scenario.fib_fingerprint
    || off.Scenario.fib_fingerprint = None
  then begin
    Printf.eprintf "trace-smoke: tracing perturbed the final FIBs\n";
    exit 1
  end;
  if prov = [] then begin
    Printf.eprintf "trace-smoke: no FIB provenance entries after the storm\n";
    exit 1
  end;
  List.iter
    (fun (node, prefix, cause) ->
      let where = node ^ " " ^ Horse_net.Prefix.to_string prefix in
      if Causal.is_none cause then begin
        Printf.eprintf "trace-smoke: FIB entry %s has no provenance\n" where;
        exit 1
      end;
      match List.rev (Causal.chain g cause) with
      | [] ->
          Printf.eprintf "trace-smoke: FIB entry %s has an empty chain\n" where;
          exit 1
      | last :: _ when last.Causal.kind <> "fib:write" ->
          Printf.eprintf
            "trace-smoke: FIB entry %s chain ends at %s, not fib:write\n" where
            last.Causal.kind;
          exit 1
      | _ :: _ -> ())
    prov;
  let again = run ~causal:true in
  let h1 = Causal.hash g
  and h2 = Causal.hash (Option.get again.Scenario.causal) in
  if h1 <> h2 then begin
    Printf.eprintf
      "trace-smoke: causal-graph hash diverged across same-seed runs\n";
    exit 1
  end
