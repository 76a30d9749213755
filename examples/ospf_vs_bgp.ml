(* Two routing protocols, two control-plane rhythms.

   The same Abilene WAN runs once under BGP and once under OSPF. Both
   converge — but BGP (with a WAN-scale hold time) goes quiet
   afterwards and lets the hybrid clock live in DES, while OSPF's
   periodic HELLOs pull the experiment back into FTI forever. Horse
   makes that difference directly visible (and billable, in wall
   time).

   Run with:  dune exec examples/ospf_vs_bgp.exe *)

open Horse_engine
open Horse_core

let run_wan name control =
  let r =
    Scenario.run
      (Spec.make ~traffic:Spec.No_traffic ~hold_time:(Time.of_sec 90.0)
         ~duration:(Time.of_sec 60.0) Spec.Abilene control)
  in
  let stats = r.Scenario.sched_stats in
  Format.printf
    "%-5s: converged %-8s  %5d msgs  %3d transitions  FTI %4.1f%% of virtual \
     time@."
    name
    (match r.Scenario.converged_at with
    | Some at -> Format.asprintf "%a" Time.pp at
    | None -> "never")
    r.Scenario.control_messages
    (List.length stats.Sched.transitions)
    (100.0
    *. Time.to_sec stats.Sched.virtual_in_fti
    /. Time.to_sec stats.Sched.end_time);
  stats

let () =
  Format.printf "Abilene (11 routers), one /24 per router, 60s virtual@.@.";
  let bgp_stats = run_wan "bgp" Spec.Bgp_ecmp in
  let ospf_stats = run_wan "ospf" Spec.Ospf in
  Format.printf
    "@.OSPF spent %.1fx as much virtual time in FTI as BGP — hello chatter is@."
    (Time.to_sec ospf_stats.Sched.virtual_in_fti
    /. Float.max 1e-9 (Time.to_sec bgp_stats.Sched.virtual_in_fti));
  Format.printf
    "exactly the kind of control-plane realism a pure simulator would flatten@."
