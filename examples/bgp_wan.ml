(* BGP on a WAN: convergence and failure recovery on the Abilene
   backbone.

   Eleven routers run the emulated BGP daemon, each originating one
   /24. The experiment shows the engine tracking the initial
   convergence in FTI mode, leaping over the quiet steady state in
   DES mode, then re-entering FTI when the Denver router crashes and
   the network reconverges around it.

   Run with:  dune exec examples/bgp_wan.exe *)

open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_core

let city = function
  | 0 -> "Seattle"
  | 1 -> "Sunnyvale"
  | 2 -> "Denver"
  | 3 -> "Los Angeles"
  | 4 -> "Kansas City"
  | 5 -> "Houston"
  | 6 -> "Indianapolis"
  | 7 -> "Atlanta"
  | 8 -> "Chicago"
  | 9 -> "Washington"
  | 10 -> "New York"
  | n -> Printf.sprintf "r%d" n

let () =
  let wan = Wan.abilene () in
  let exp = Experiment.create wan.Wan.topo in
  (* A WAN-ish 30 s hold time: keepalives every 10 s, and a dead
     neighbour is detected within half a minute. *)
  let fabric =
    Routed_fabric.build ~cm:(Experiment.cm exp) ~hold_time:(Time.of_sec 30.0)
      ~originate:(fun node -> [ Wan.router_prefix wan node ])
      wan.Wan.topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  Routed_fabric.when_converged fabric (fun () ->
      Format.printf "[%a] initial convergence: all %d routers have all %d routes@."
        Time.pp
        (Sched.now (Experiment.scheduler exp))
        (Array.length wan.Wan.routers)
        (List.length (Routed_fabric.all_prefixes fabric)));

  (* Crash Denver at t = 20 s: its peers' hold timers must expire and
     the routes through it must move. *)
  let denver = wan.Wan.routers.(2) in
  Experiment.at exp (Time.of_sec 20.0) (fun () ->
      Format.printf "[%a] *** killing %s ***@." Time.pp (Time.of_sec 20.0)
        (city 2);
      ignore (Routed_fabric.crash_node fabric denver.Topology.id));

  (* Watch Seattle's route towards Kansas City's prefix: initially the
     short way through Denver, afterwards around it. *)
  let seattle = wan.Wan.routers.(0) in
  let kc_prefix = Wan.router_prefix wan 4 in
  let show_route label =
    let table = Routed_fabric.table fabric seattle.Topology.id in
    match Fwd.lookup table (Prefix.network kc_prefix) with
    | Some links ->
        let vias =
          List.map
            (fun l -> city (Topology.link wan.Wan.topo l).Topology.dst)
            links
        in
        Format.printf "%s: Seattle -> %a via %s@." label Prefix.pp kc_prefix
          (String.concat " / " vias)
    | None -> Format.printf "%s: Seattle has no route to %a@." label Prefix.pp kc_prefix
  in
  Experiment.at exp (Time.of_sec 19.0) (fun () -> show_route "before failure");
  Experiment.at exp (Time.of_sec 59.0) (fun () -> show_route "after reconvergence");

  let stats = Experiment.run ~until:(Time.of_sec 60.0) exp in

  Format.printf "@.mode timeline:@.";
  List.iter
    (fun (tr : Sched.transition) ->
      Format.printf "  [%a] %a -> %a (%s)@." Time.pp tr.Sched.at Sched.pp_mode
        tr.Sched.from_mode Sched.pp_mode tr.Sched.to_mode tr.Sched.reason)
    stats.Sched.transitions;
  Format.printf "@.%a@." Sched.pp_stats stats;
  Format.printf "@.%d BGP messages crossed the Connection Manager@."
    (Connection_manager.messages_observed (Experiment.cm exp))
