(* Robustness smoke for the fault plane: a deterministic flap storm +
   node crash on the small fat-tree TE scenario.  The control plane
   must self-heal — every injected fault reconverged, all sessions
   re-established, all FIBs complete — and each fault must heal within
   a reconvergence budget.  Exits non-zero otherwise, failing
   @fault-smoke (and @runtest with it).

   Writes the armed plan and the per-fault reconvergence report to the
   path given as argv(1). *)

module Time = Horse_engine.Time
module Scenario = Horse_core.Scenario
module Plan = Horse_faults.Plan
module Injector = Horse_faults.Injector
module Json = Horse_telemetry.Json

(* Hold time 9 s + ConnectRetry 5 s bound a crash's healing time;
   link flaps heal in a couple of seconds.  20 s of virtual time per
   fault is a generous ceiling — blowing it means self-healing broke. *)
let budget_s = 20.0

let plan = Horse_test_support.smoke_storm_plan ()

let () =
  let out = Sys.argv.(1) in
  let r =
    Scenario.run_fat_tree_te ~pods:4 ~te:Scenario.Bgp_ecmp ~faults:plan
      ~duration:(Time.of_sec 40.0) ()
  in
  let inj = Option.get r.Scenario.injector in
  let recon = Injector.reconvergence inj in
  let oc = open_out out in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("plan", Plan.to_json plan); ("faults", Injector.report_json inj) ]));
  output_char oc '\n';
  close_out oc;
  let worst =
    List.fold_left
      (fun acc (_, at, healed) ->
        Float.max acc (Time.to_sec healed -. Time.to_sec at))
      0.0 recon
  in
  Printf.printf
    "fault-smoke: %d faults injected (%d skipped), %d healed, worst \
     reconvergence %.3fs\n"
    (Injector.injected inj) (Injector.skipped inj) (List.length recon) worst;
  if Injector.injected inj = 0 || Injector.skipped inj > 0 then begin
    Printf.eprintf
      "fault-smoke: plan did not fully apply (injected=%d skipped=%d) — \
       fault sites out of sync with the fat-tree names?\n"
      (Injector.injected inj) (Injector.skipped inj);
    exit 1
  end;
  if Injector.pending inj > 0 then begin
    Printf.eprintf "fault-smoke: %d faults never reconverged\n"
      (Injector.pending inj);
    exit 1
  end;
  if worst > budget_s then begin
    Printf.eprintf
      "fault-smoke: reconvergence budget exceeded: worst %.3fs > %.1fs\n" worst
      budget_s;
    exit 1
  end