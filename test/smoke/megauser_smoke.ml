(* Million-user workload smoke: the delta fair-share solver at
   benchmark shape but smoke size — 20k flow classes carved from a
   gravity traffic matrix on the Abilene WAN, served from 3 anycast
   sites, links capacity-planned at 1.05x their expected load except
   for one deliberately under-planned hot link (so both the fast path
   and the scoped slow path run).

   Gates, failing @megauser-smoke (and @runtest with it):
   - over a 300-event churn phase (arrivals, departures, reroutes,
     each flushed individually), the delta solver's solve work (flows
     entering scoped water-fills) stays within [work_budget] flows per
     event. The scoped solver touches about 80; an eager solver that
     re-solved each event's whole connected component would touch
     about 2,700;
   - after the churn, every class's rate agrees with the from-scratch
     progressive-filling oracle within 1e-9 relative.

   Writes the measured work and error figures to argv(1). *)

module Delta = Horse_dataplane.Fair_share.Delta
module Fair_share_reference = Horse_test_support.Fair_share_reference
module Topology = Horse_topo.Topology
module Wan = Horse_topo.Wan
module Spf = Horse_topo.Spf
module Tm = Horse_topo.Traffic_matrix
module Json = Horse_telemetry.Json

let classes_target = 20_000
let churn_events = 300
let work_budget = 160.0  (* flows touched per churn event *)
let tol = 1e-9

type cls = { demand : float; city : int; mutable links : int list }

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "/dev/null" in
  let wan = Wan.abilene () in
  let topo = wan.Wan.topo in
  let n = Array.length wan.Wan.routers in
  let site_city s = s * n / 3 in
  let trees =
    Array.init 3 (fun s ->
        Spf.shortest_tree topo ~src:wan.Wan.routers.(site_city s).Topology.id)
  in
  (* Sites serving each city, nearest first (stable on ties). *)
  let ranked =
    Array.init n (fun c ->
        let dist s =
          match Spf.distance trees.(s) wan.Wan.routers.(c).Topology.id with
          | Some d -> d
          | None -> max_int
        in
        let order = [| 0; 1; 2 |] in
        Array.sort (fun a b -> compare (dist a) (dist b)) order;
        order)
  in
  let path_from_site s c =
    if site_city s = c then []
    else
      match
        Spf.first_path trees.(s) topo ~dst:wan.Wan.routers.(c).Topology.id
      with
      | Some p -> List.map (fun (l : Topology.link) -> l.Topology.link_id) p
      | None -> failwith "megauser-smoke: Abilene disconnected?"
  in
  (* Gravity cells -> flow classes on nearest-site paths. *)
  let masses = Tm.zipf_masses n in
  let tm = Tm.gravity ~total:(float_of_int classes_target *. 150e3) ~masses in
  let total = Tm.total tm in
  let live : (int, cls) Hashtbl.t = Hashtbl.create (2 * classes_target) in
  let next_id = ref 0 in
  Tm.iter tm (fun ~src:_ ~dst d ->
      let k =
        max 1
          (int_of_float
             (Float.round (float_of_int classes_target *. d /. total)))
      in
      let per = d /. float_of_int k in
      let links = path_from_site ranked.(dst).(0) dst in
      for _ = 1 to k do
        Hashtbl.replace live !next_id { demand = per; city = dst; links };
        incr next_id
      done);
  let built = Hashtbl.length live in
  (* Capacity plan: 1.05x expected load per loaded link, then
     deliberately under-plan the single most-loaded link so part of
     the graph genuinely saturates. *)
  let loads = Array.make (Topology.n_links topo) 0.0 in
  Hashtbl.iter
    (fun _ c -> List.iter (fun l -> loads.(l) <- loads.(l) +. c.demand) c.links)
    live;
  let caps =
    Array.map (fun load -> if load > 0.0 then 1.05 *. load else 1e9) loads
  in
  (* Under-plan a link of modest membership (closest to 200 member
     classes): big enough that saturation is meaningful and the scoped
     slow path runs, small enough that the delta solver's advantage
     over whole-component recompute stays visible. *)
  let members = Array.make (Topology.n_links topo) 0 in
  Hashtbl.iter
    (fun _ c -> List.iter (fun l -> members.(l) <- members.(l) + 1) c.links)
    live;
  let hot = ref (-1) in
  Array.iteri
    (fun i load ->
      if
        load > 0.0
        && (!hot < 0 || abs (members.(i) - 200) < abs (members.(!hot) - 200))
      then hot := i)
    loads;
  caps.(!hot) <- 0.9 *. loads.(!hot);
  let capacity l = caps.(l) in
  let t = Delta.create ~capacity () in
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) live [] in
  List.iter
    (fun id ->
      let c = Hashtbl.find live id in
      Delta.add_flow t ~id ~demand:c.demand ~links:c.links)
    (List.sort compare ids);
  Delta.flush t;
  let s0 = Delta.stats t in
  let rng = Random.State.make [| 11; built |] in
  let pick_live () =
    let size = Hashtbl.length live in
    let k = Random.State.int rng size in
    let i = ref 0 and found = ref (-1) in
    (try
       Hashtbl.iter
         (fun id _ ->
           if !i = k then begin
             found := id;
             raise Exit
           end;
           incr i)
         live
     with Exit -> ());
    !found
  in
  for _ = 1 to churn_events do
    (match Random.State.int rng 3 with
    | 0 ->
        (* Arrival: a sibling of an existing class (same cell shape). *)
        let tmpl = Hashtbl.find live (pick_live ()) in
        let id = !next_id in
        incr next_id;
        Hashtbl.replace live id
          { demand = tmpl.demand; city = tmpl.city; links = tmpl.links };
        Delta.add_flow t ~id ~demand:tmpl.demand ~links:tmpl.links
    | 1 ->
        (* Departure. *)
        let id = pick_live () in
        Hashtbl.remove live id;
        Delta.remove_flow t ~id
    | _ ->
        (* Reroute: steer onto the second-nearest site's path. *)
        let id = pick_live () in
        let c = Hashtbl.find live id in
        c.links <- path_from_site ranked.(c.city).(1) c.city;
        Delta.set_links t ~id ~links:c.links);
    Delta.flush t
  done;
  let s1 = Delta.stats t in
  let delta_work = s1.Delta.flows_touched - s0.Delta.flows_touched in
  let per_event = float_of_int delta_work /. float_of_int churn_events in
  (* Oracle: from-scratch progressive filling over the final flow set. *)
  let final_ids = List.sort compare (Hashtbl.fold (fun id _ a -> id :: a) live []) in
  let inputs =
    Array.of_list
      (List.map
         (fun id ->
           let c = Hashtbl.find live id in
           { Fair_share_reference.demand = c.demand; links = c.links })
         final_ids)
  in
  let reference = Fair_share_reference.compute ~capacity inputs in
  let max_rel_err = ref 0.0 in
  List.iteri
    (fun i id ->
      let err =
        abs_float (Delta.rate t ~id -. reference.(i))
        /. Float.max 1.0 reference.(i)
      in
      if err > !max_rel_err then max_rel_err := err)
    final_ids;
  let oc = open_out out in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("flow_classes", Json.Int built);
            ("events", Json.Int churn_events);
            ("delta_work", Json.Int delta_work);
            ("work_per_event", Json.Float per_event);
            ("max_rel_err", Json.Float !max_rel_err);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "megauser-smoke: %d classes, %d churn events: delta work %d (%.1f flows \
     per event, budget %.0f), max rate error %.2e\n"
    built churn_events delta_work per_event work_budget !max_rel_err;
  if built < classes_target * 9 / 10 then begin
    Printf.eprintf "megauser-smoke: workload too small: %d < %d classes\n"
      built (classes_target * 9 / 10);
    exit 1
  end;
  if per_event > work_budget then begin
    Printf.eprintf
      "megauser-smoke: solve-work budget missed: %.1f > %.0f flows per event \
       — the delta solver's scoping or fast path regressed?\n"
      per_event work_budget;
    exit 1
  end;
  if !max_rel_err > tol then begin
    Printf.eprintf
      "megauser-smoke: rates diverged from the reference: %.2e > %.0e\n"
      !max_rel_err tol;
    exit 1
  end
