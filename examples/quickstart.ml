(* Quickstart: the smallest complete Horse experiment.

   Builds a 2-pod fat-tree (2 servers), runs the SDN control plane
   (reactive 5-tuple ECMP) over it for 10 virtual seconds with one
   1 Gbps flow per server, and prints what the hybrid engine did.

   Run with:  dune exec examples/quickstart.exe *)

open Horse_engine
open Horse_core

let () =
  let result =
    Scenario.run
      (Spec.make ~duration:(Time.of_sec 10.0) (Spec.Fat_tree 2) Spec.Sdn_ecmp)
  in
  Format.printf "--- result ---------------------------------------@.";
  Format.printf "%a@.@." Scenario.pp_result result;

  Format.printf "--- what the hybrid clock did --------------------@.";
  let stats = result.Scenario.sched_stats in
  List.iter
    (fun (tr : Sched.transition) ->
      Format.printf "[%a] %a -> %a  (%s)@." Time.pp tr.Sched.at Sched.pp_mode
        tr.Sched.from_mode Sched.pp_mode tr.Sched.to_mode tr.Sched.reason)
    stats.Sched.transitions;
  Format.printf "@.%a@." Sched.pp_stats stats;

  (* The headline idea in two numbers: the experiment covered 10
     virtual seconds, but only the instants with control-plane
     activity (flow setup at the start) ran in small increments —
     everything else was leapt over in DES mode. *)
  Format.printf
    "@.%.1f%% of the virtual time ran in fast DES mode; wall time %.3fs@."
    (100.0
    *. Time.to_sec stats.Sched.virtual_in_des
    /. Time.to_sec stats.Sched.end_time)
    stats.Sched.wall_total
