(* The paper's demonstration, as a runnable example: three
   traffic-engineering approaches on a 4-pod fat-tree.

   Every server sends one 1 Gbps UDP flow to another server (random
   permutation); the three control planes route them with different
   granularity and adaptivity:

   (i)   BGP + ECMP hashing source and destination IP only,
   (ii)  Hedera, polling flow statistics every 5 s and replacing big
         flows with Global First Fit,
   (iii) SDN reactive ECMP hashing the full 5-tuple.

   Run with:  dune exec examples/datacenter_te.exe *)

open Horse_engine
open Horse_stats
open Horse_core

let () =
  let pods = 4 and duration = Time.of_sec 30.0 in
  let results =
    List.map
      (fun te ->
        let r =
          Scenario.run
            (Spec.make ~sample_every:(Time.of_sec 1.0) ~duration (Spec.Fat_tree pods) te)
        in
        Format.printf "%a@.@." Scenario.pp_result r;
        (te, r))
      Scenario.all_te
  in
  Format.printf "--- comparison -----------------------------------@.";
  Format.printf "%-12s %12s %12s %12s@." "te" "mean Gbps" "goodput %"
    "ctrl msgs";
  List.iter
    (fun (te, (r : Scenario.result)) ->
      Format.printf "%-12s %12.2f %12.1f %12d@." (Scenario.te_name te)
        (Series.mean r.Scenario.aggregate /. 1e9)
        (100.0 *. r.Scenario.delivered_bits /. r.Scenario.offered_bits)
        r.Scenario.control_messages)
    results;
  Format.printf "@.aggregate rate at the hosts over time (Gbps):@.";
  Ascii.plot ~height:12 Format.std_formatter
    (List.map
       (fun (te, (r : Scenario.result)) ->
         ( Scenario.te_name te,
           Series.map r.Scenario.aggregate ~f:(fun v -> v /. 1e9) ))
       results)
