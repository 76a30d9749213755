(* Tests for horse_dataplane: LPM forwarding, max-min fair share, the
   fluid engine, and the per-packet baseline engine. *)

open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane

let check = Alcotest.check
let qtest = Horse_test_support.qtest

module Fair_share_reference = Horse_test_support.Fair_share_reference

(* --- Fwd (longest prefix match) ---------------------------------------- *)

let test_fwd_lpm_order () =
  let t = Fwd.create () in
  Fwd.set_route t Prefix.any ~next_hops:[ 1 ];
  Fwd.set_route t (Prefix.of_string_exn "10.0.0.0/8") ~next_hops:[ 2 ];
  Fwd.set_route t (Prefix.of_string_exn "10.1.0.0/16") ~next_hops:[ 3 ];
  Fwd.set_route t (Prefix.of_string_exn "10.1.2.3/32") ~next_hops:[ 4 ];
  let lookup s = Fwd.lookup t (Ipv4.of_string_exn s) in
  check (Alcotest.option (Alcotest.list Alcotest.int)) "/32 wins" (Some [ 4 ])
    (lookup "10.1.2.3");
  check (Alcotest.option (Alcotest.list Alcotest.int)) "/16" (Some [ 3 ])
    (lookup "10.1.9.9");
  check (Alcotest.option (Alcotest.list Alcotest.int)) "/8" (Some [ 2 ])
    (lookup "10.200.0.1");
  check (Alcotest.option (Alcotest.list Alcotest.int)) "default" (Some [ 1 ])
    (lookup "8.8.8.8")

let test_fwd_remove_and_replace () =
  let t = Fwd.create () in
  let p = Prefix.of_string_exn "192.168.0.0/24" in
  Fwd.set_route t p ~next_hops:[ 5; 3; 5 ];
  check (Alcotest.option (Alcotest.list Alcotest.int)) "dedup + sort"
    (Some [ 3; 5 ])
    (Fwd.lookup t (Ipv4.of_octets 192 168 0 1));
  check Alcotest.int "count" 1 (Fwd.route_count t);
  Fwd.set_route t p ~next_hops:[ 9 ];
  check Alcotest.int "replace keeps count" 1 (Fwd.route_count t);
  Fwd.remove_route t p;
  check Alcotest.int "removed" 0 (Fwd.route_count t);
  Fwd.remove_route t p (* idempotent *);
  check Alcotest.bool "no match" true
    (Fwd.lookup t (Ipv4.of_octets 192 168 0 1) = None)

(* A length is probed only while it holds a route: its last removal
   drops it, and a route that comes back restores it. *)
let test_fwd_lengths_in_use () =
  let t = Fwd.create () in
  let ints = Alcotest.list Alcotest.int in
  check ints "a new table probes nothing" [] (Fwd.lengths t);
  let a = Prefix.of_string_exn "10.0.1.0/24"
  and b = Prefix.of_string_exn "10.0.2.0/24"
  and h = Prefix.of_string_exn "10.0.1.7/32" in
  List.iter (fun p -> Fwd.set_route t p ~next_hops:[ 1 ]) [ a; b; h ];
  check ints "longest first" [ 32; 24 ] (Fwd.lengths t);
  Fwd.remove_route t a;
  check ints "a /24 is left" [ 32; 24 ] (Fwd.lengths t);
  Fwd.remove_route t b;
  check ints "the last /24 clears its length" [ 32 ] (Fwd.lengths t);
  check (Alcotest.option (Alcotest.list Alcotest.int)) "the /32 still matches"
    (Some [ 1 ])
    (Fwd.lookup t (Ipv4.of_string_exn "10.0.1.7"));
  check Alcotest.bool "nothing covers the /24" true
    (Fwd.lookup t (Ipv4.of_string_exn "10.0.1.8") = None);
  Fwd.remove_route t h;
  check ints "empty again" [] (Fwd.lengths t);
  Fwd.set_route t b ~next_hops:[ 2 ];
  check ints "a returning length" [ 24 ] (Fwd.lengths t);
  check (Alcotest.option (Alcotest.list Alcotest.int)) "and its route"
    (Some [ 2 ])
    (Fwd.lookup t (Ipv4.of_string_exn "10.0.2.1"))

let test_fwd_lookup_select () =
  let t = Fwd.create () in
  Fwd.set_route t Prefix.any ~next_hops:[ 10; 20; 30 ];
  check (Alcotest.option Alcotest.int) "selects by hash mod" (Some 20)
    (Fwd.lookup_select t Ipv4.any ~hash:7);
  check (Alcotest.option Alcotest.int) "hash 0" (Some 10)
    (Fwd.lookup_select t Ipv4.any ~hash:0)

let test_fwd_empty_group_rejected () =
  let t = Fwd.create () in
  Alcotest.check_raises "empty next hops"
    (Invalid_argument "Fwd.set_route: empty next-hop set") (fun () ->
      Fwd.set_route t Prefix.any ~next_hops:[])

(* LPM vs naive oracle. *)
let prop_fwd_matches_naive =
  qtest ~count:100 "fwd: lookup matches the naive longest-match oracle"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 30)
           (pair int32 (int_range 0 32)))
        (list_size (int_range 0 10) (int_range 0 29))
        int32)
    (fun (routes, removed, addr32) ->
      let t = Fwd.create () in
      let routes =
        List.mapi
          (fun i (a, len) -> (Prefix.make (Ipv4.of_int32 a) len, [ i + 1 ]))
          routes
      in
      (* Later set_route calls overwrite equal prefixes, mirroring the
         oracle's preference for the last binding. *)
      List.iter (fun (p, hops) -> Fwd.set_route t p ~next_hops:hops) routes;
      (* Removing a prefix drops every binding of it, and may empty its
         length. *)
      let removed =
        List.filter_map (fun i -> Option.map fst (List.nth_opt routes i)) removed
      in
      List.iter (Fwd.remove_route t) removed;
      let routes =
        List.filter
          (fun (p, _) -> not (List.exists (Prefix.equal p) removed))
          routes
      in
      let addr = Ipv4.of_int32 addr32 in
      let naive =
        List.fold_left
          (fun acc (p, hops) ->
            if Prefix.mem addr p then
              (* Equal-length matching prefixes are identical, and the
                 last binding wins (replace semantics). *)
              match acc with
              | Some (best, _) when Prefix.length best > Prefix.length p -> acc
              | Some _ | None -> Some (p, hops)
            else acc)
          None routes
      in
      (match (Fwd.lookup t addr, naive) with
      | None, None -> true
      | Some got, Some (_, want) -> got = want
      | Some _, None | None, Some _ -> false)
      && Fwd.lengths t
         = List.sort_uniq (fun a b -> Int.compare b a)
             (List.map (fun (p, _) -> Prefix.length p) routes))

(* --- Fair share --------------------------------------------------------- *)

let capacity_all c _ = c

(* A from-scratch solve through the production solver: add every flow
   to a fresh delta engine, flush once, read the rates back. *)
let delta_solve ~capacity flows =
  let d = Fair_share.Delta.create ~capacity () in
  Array.iteri
    (fun id (f : Fair_share_reference.flow_input) ->
      Fair_share.Delta.add_flow d ~id ~demand:f.Fair_share_reference.demand
        ~links:f.Fair_share_reference.links)
    flows;
  Fair_share.Delta.flush d;
  Array.mapi (fun id _ -> Fair_share.Delta.rate d ~id) flows

(* The ids [Delta.iter_touched] visits, in its order. *)
let delta_touched d =
  let ids = ref [] in
  Fair_share.Delta.iter_touched d (fun id _ -> ids := id :: !ids);
  List.rev !ids

let test_fair_share_single_bottleneck () =
  (* Three flows share one 9 Gbps link: 3 Gbps each. *)
  let flows =
    Array.make 3 { Fair_share_reference.demand = 10e9; links = [ 0 ] }
  in
  let rates = delta_solve ~capacity:(capacity_all 9e9) flows in
  Array.iter (fun r -> check (Alcotest.float 1.0) "equal share" 3e9 r) rates

let test_fair_share_demand_limited () =
  (* One small flow keeps its demand; the rest split the remainder. *)
  let flows =
    [|
      { Fair_share_reference.demand = 1e9; links = [ 0 ] };
      { Fair_share_reference.demand = 10e9; links = [ 0 ] };
      { Fair_share_reference.demand = 10e9; links = [ 0 ] };
    |]
  in
  let rates = delta_solve ~capacity:(capacity_all 9e9) flows in
  check (Alcotest.float 1.0) "small keeps demand" 1e9 rates.(0);
  check (Alcotest.float 1.0) "big splits remainder" 4e9 rates.(1);
  check (Alcotest.float 1.0) "big splits remainder" 4e9 rates.(2)

let test_fair_share_two_bottlenecks () =
  (* Classic example: link0 cap 1, flows A(link0), B(link0+link1),
     link1 cap 10. A and B get 0.5 each on link0; B is bottlenecked
     there. *)
  let flows =
    [|
      { Fair_share_reference.demand = 10.0; links = [ 0 ] };
      { Fair_share_reference.demand = 10.0; links = [ 0; 1 ] };
    |]
  in
  let capacity = function 0 -> 1.0 | _ -> 10.0 in
  let rates = delta_solve ~capacity flows in
  check (Alcotest.float 1e-9) "A" 0.5 rates.(0);
  check (Alcotest.float 1e-9) "B" 0.5 rates.(1)

let test_fair_share_cascade () =
  (* Water-filling across two links: flow C crosses only link1 and
     should pick up what B cannot use.
     link0 cap 1 (A, B), link1 cap 10 (B, C):
     A = B = 0.5; C = 9.5 capped at demand 2 -> 2. *)
  let flows =
    [|
      { Fair_share_reference.demand = 10.0; links = [ 0 ] };
      { Fair_share_reference.demand = 10.0; links = [ 0; 1 ] };
      { Fair_share_reference.demand = 2.0; links = [ 1 ] };
    |]
  in
  let capacity = function 0 -> 1.0 | _ -> 10.0 in
  let rates = delta_solve ~capacity flows in
  check (Alcotest.float 1e-9) "A" 0.5 rates.(0);
  check (Alcotest.float 1e-9) "B" 0.5 rates.(1);
  check (Alcotest.float 1e-9) "C demand-capped" 2.0 rates.(2)

let test_fair_share_empty_path () =
  let flows = [| { Fair_share_reference.demand = 5.0; links = [] } |] in
  let rates = delta_solve ~capacity:(capacity_all 1.0) flows in
  check (Alcotest.float 1e-9) "unconstrained = demand" 5.0 rates.(0)

let test_fair_share_zero_demand () =
  let flows = [| { Fair_share_reference.demand = 0.0; links = [ 0 ] } |] in
  let rates = delta_solve ~capacity:(capacity_all 1.0) flows in
  check (Alcotest.float 1e-9) "zero demand" 0.0 rates.(0)

let gen_fair_share_case =
  let open QCheck2.Gen in
  let* n_links = int_range 1 6 in
  let* caps = array_size (return n_links) (float_range 0.5 10.0) in
  let* n_flows = int_range 1 12 in
  let* flows =
    list_size (return n_flows)
      (let* demand = float_range 0.1 5.0 in
       let* path_len = int_range 1 n_links in
       let* links = list_size (return path_len) (int_range 0 (n_links - 1)) in
       return
         {
           Fair_share_reference.demand;
           links = List.sort_uniq Int.compare links;
         })
  in
  return (caps, Array.of_list flows)

let prop_fair_share_feasible =
  qtest ~count:100 "fair share: allocation is feasible and demand-capped"
    gen_fair_share_case (fun (caps, flows) ->
      let capacity l = caps.(l) in
      let rates = delta_solve ~capacity flows in
      let demand_ok =
        Array.for_all2
          (fun r (f : Fair_share_reference.flow_input) ->
            r >= -1e-9 && r <= f.Fair_share_reference.demand +. 1e-9)
          rates flows
      in
      let load_ok =
        List.for_all
          (fun (l, load) -> load <= caps.(l) +. 1e-6)
          (Fair_share_reference.link_loads flows rates)
      in
      demand_ok && load_ok)

let prop_fair_share_maxmin_bottleneck =
  (* Max-min optimality witness: every flow is either demand-capped
     or crosses a saturated link on which it has the maximal rate. *)
  qtest ~count:100 "fair share: every flow is demand- or bottleneck-limited"
    gen_fair_share_case (fun (caps, flows) ->
      let capacity l = caps.(l) in
      let rates = delta_solve ~capacity flows in
      let loads = Fair_share_reference.link_loads flows rates in
      let load l = List.assoc l loads in
      let ok = ref true in
      Array.iteri
        (fun i (f : Fair_share_reference.flow_input) ->
          let demand_capped =
            rates.(i) >= f.Fair_share_reference.demand -. 1e-6
          in
          let bottlenecked =
            List.exists
              (fun l ->
                load l >= caps.(l) -. 1e-6
                && Array.for_all2
                     (fun r (g : Fair_share_reference.flow_input) ->
                       (not (List.mem l g.Fair_share_reference.links))
                       || r <= rates.(i) +. 1e-6)
                     rates flows)
              f.Fair_share_reference.links
          in
          if not (demand_capped || bottlenecked) then ok := false)
        flows;
      !ok)

(* Differential generator: wider than the feasibility one — includes
   zero demands, empty paths and heavy demand duplication, the inputs
   where the batched water-filling could diverge from progressive
   filling. *)
let gen_differential_case =
  let open QCheck2.Gen in
  let* n_links = int_range 1 8 in
  let* caps = array_size (return n_links) (float_range 0.5 10.0) in
  let* n_flows = int_range 0 25 in
  let* demand_pool = array_size (return 4) (float_range 0.0 6.0) in
  let* flows =
    list_size (return n_flows)
      (let* demand =
         oneof
           [
             (let* i = int_range 0 3 in
              return demand_pool.(i));
             float_range 0.0 6.0;
             return 0.0;
           ]
       in
       let* path_len = int_range 0 n_links in
       let* links = list_size (return path_len) (int_range 0 (n_links - 1)) in
       return
         {
           Fair_share_reference.demand;
           links = List.sort_uniq Int.compare links;
         })
  in
  return (caps, Array.of_list flows)

let prop_fair_share_differential =
  qtest ~count:500 "fair share: water filling matches progressive filling"
    gen_differential_case (fun (caps, flows) ->
      let capacity l = caps.(l) in
      let fast = delta_solve ~capacity flows in
      let slow = Fair_share_reference.compute ~capacity flows in
      Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9) fast slow)

let prop_fair_share_differential_invariants =
  (* The production solver alone must satisfy the max-min witness on
     the wider input class too. *)
  qtest ~count:300 "fair share: invariants hold on degenerate inputs"
    gen_differential_case (fun (caps, flows) ->
      let capacity l = caps.(l) in
      let rates = delta_solve ~capacity flows in
      let demand_ok =
        Array.for_all2
          (fun r (f : Fair_share_reference.flow_input) ->
            r >= -1e-9 && r <= f.Fair_share_reference.demand +. 1e-9)
          rates flows
      in
      let load_ok =
        List.for_all
          (fun (l, load) -> load <= caps.(l) +. 1e-6)
          (Fair_share_reference.link_loads flows rates)
      in
      demand_ok && load_ok)

(* --- Delta solver: random arrival/departure/reroute schedules ----------- *)

type delta_event =
  | Ev_add of float * int list
  | Ev_remove of int  (* picks the k-th alive flow, mod alive count *)
  | Ev_reroute of int * int list
  | Ev_flush

let gen_delta_schedule =
  let open QCheck2.Gen in
  let* n_links = int_range 1 8 in
  let* caps = array_size (return n_links) (float_range 0.5 10.0) in
  let* demand_pool = array_size (return 4) (float_range 0.0 6.0) in
  let gen_links =
    let* path_len = int_range 0 n_links in
    let* links = list_size (return path_len) (int_range 0 (n_links - 1)) in
    return (List.sort_uniq Int.compare links)
  in
  let gen_demand =
    oneof
      [
        (let* i = int_range 0 3 in
         return demand_pool.(i));
        float_range 0.0 6.0;
        return 0.0;
      ]
  in
  let* events =
    list_size (int_range 0 60)
      (frequency
         [
           ( 4,
             let* d = gen_demand in
             let* ls = gen_links in
             return (Ev_add (d, ls)) );
           ( 2,
             let* k = int_range 0 100 in
             return (Ev_remove k) );
           ( 2,
             let* k = int_range 0 100 in
             let* ls = gen_links in
             return (Ev_reroute (k, ls)) );
           (3, return Ev_flush);
         ])
  in
  return (caps, events)

(* Replays a schedule through Delta while mirroring the alive set, and
   at every flush asserts (a) flows outside [Delta.iter_touched] kept
   bit-identical rates — the untouched region is physically unchanged
   — and the rates it hands back are the flows' own, (b) the full
   alive state matches the progressive-filling oracle, and (c) each
   link's [fold_link] visits exactly its alive members, by ascending
   id, at their rates. *)
let run_delta_schedule ?ids (caps, events) =
  let capacity l = caps.(l) in
  let delta = Fair_share.Delta.create ~capacity () in
  let alive : (int, Fair_share_reference.flow_input) Hashtbl.t =
    Hashtbl.create 16
  in
  let next = ref 0 in
  let ok = ref true in
  let pick k =
    let ids =
      List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) alive [])
    in
    match ids with [] -> None | _ -> Some (List.nth ids (k mod List.length ids))
  in
  let flush () =
    let before =
      Hashtbl.fold
        (fun id _ acc ->
          (id, Int64.bits_of_float (Fair_share.Delta.rate delta ~id)) :: acc)
        alive []
    in
    Fair_share.Delta.flush delta;
    let touched = delta_touched delta in
    Fair_share.Delta.iter_touched delta (fun id rate ->
        let want = if Hashtbl.mem alive id then Fair_share.Delta.rate delta ~id else 0.0 in
        if Int64.bits_of_float rate <> Int64.bits_of_float want then ok := false);
    List.iter
      (fun (id, bits) ->
        if
          (not (List.mem id touched))
          && Int64.bits_of_float (Fair_share.Delta.rate delta ~id) <> bits
        then ok := false)
      before;
    let ids =
      List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) alive [])
    in
    let flows = Array.of_list (List.map (Hashtbl.find alive) ids) in
    let want = Fair_share_reference.compute ~capacity flows in
    List.iteri
      (fun i id ->
        if Float.abs (Fair_share.Delta.rate delta ~id -. want.(i)) > 1e-9 then
          ok := false)
      ids;
    Array.iteri
      (fun link _ ->
        let members =
          Fair_share.Delta.fold_link delta ~link
            (fun id rate acc -> (id, rate) :: acc)
            []
        in
        let want =
          List.filter_map
            (fun id ->
              if List.mem link (Hashtbl.find alive id).Fair_share_reference.links
              then Some (id, Fair_share.Delta.rate delta ~id)
              else None)
            ids
        in
        if List.rev members <> want then ok := false)
      caps
  in
  List.iter
    (fun ev ->
      match ev with
      | Ev_add (demand, links) ->
          let id = match ids with Some ids -> ids.(!next) | None -> !next in
          incr next;
          Hashtbl.replace alive id { Fair_share_reference.demand; links };
          Fair_share.Delta.add_flow delta ~id ~demand ~links
      | Ev_remove k -> (
          match pick k with
          | None -> ()
          | Some id ->
              Hashtbl.remove alive id;
              Fair_share.Delta.remove_flow delta ~id)
      | Ev_reroute (k, links) -> (
          match pick k with
          | None -> ()
          | Some id ->
              let f = Hashtbl.find alive id in
              Hashtbl.replace alive id { f with Fair_share_reference.links };
              Fair_share.Delta.set_links delta ~id ~links)
      | Ev_flush -> flush ())
    events;
  flush ();
  !ok

let prop_fair_share_delta_schedule =
  qtest ~count:500
    "fair share: delta solves track the reference over random schedules"
    gen_delta_schedule run_delta_schedule

(* The same schedules with ids arriving out of order, as the API
   allows: the k-th arrival takes the k-th id of a shuffled pool of
   sparse (some negative) ids, so member vectors take inserts in the
   middle, not only appends. *)
let with_shuffled_ids gen =
  let open QCheck2.Gen in
  let* caps, events = gen in
  let n_adds =
    List.length (List.filter (function Ev_add _ -> true | _ -> false) events)
  in
  let* ids = shuffle_l (List.init n_adds (fun i -> (7 * i) - 20)) in
  return (Array.of_list ids, (caps, events))

let prop_fair_share_delta_shuffled_ids =
  qtest ~count:300 "fair share: out-of-order ids in delta schedules"
    (with_shuffled_ids gen_delta_schedule) (fun (ids, schedule) ->
      run_delta_schedule ~ids schedule)

(* Crowded links: 70 arrivals through link 0 first, then a long
   add-heavy schedule over at most three links. More than 64 flows
   share link 0, so member vectors grow through several capacities
   and departures and reroutes remove from the middle. *)
let gen_delta_schedule_crowded =
  let open QCheck2.Gen in
  let* n_links = int_range 1 3 in
  let* caps = array_size (return n_links) (float_range 5.0 40.0) in
  let* demand_pool = array_size (return 3) (float_range 0.0 2.0) in
  let gen_links =
    let* extra = list_size (int_range 0 2) (int_range 0 (n_links - 1)) in
    return (List.sort_uniq Int.compare (0 :: extra))
  in
  let gen_add =
    let* d =
      oneof
        [
          (let* i = int_range 0 2 in
           return demand_pool.(i));
          float_range 0.0 2.0;
        ]
    in
    let* ls = gen_links in
    return (Ev_add (d, ls))
  in
  let* prefix = list_size (return 70) gen_add in
  let* rest =
    list_size (int_range 50 200)
      (frequency
         [
           (7, gen_add);
           ( 2,
             let* k = int_range 0 1000 in
             return (Ev_remove k) );
           ( 2,
             let* k = int_range 0 1000 in
             let* ls = gen_links in
             return (Ev_reroute (k, ls)) );
           (1, return Ev_flush);
         ])
  in
  return (caps, prefix @ (Ev_flush :: rest))

let prop_fair_share_delta_crowded =
  qtest ~count:40 "fair share: crowded links (>64 flows) in delta schedules"
    (with_shuffled_ids gen_delta_schedule_crowded) (fun (ids, schedule) ->
      run_delta_schedule ~ids schedule)

let test_delta_scoped_arrival () =
  (* Two disjoint bottlenecks; an arrival on one must not touch the
     other's flows. *)
  let capacity = capacity_all 1.0 in
  let d = Fair_share.Delta.create ~capacity () in
  Fair_share.Delta.add_flow d ~id:0 ~demand:2.0 ~links:[ 0 ];
  Fair_share.Delta.add_flow d ~id:1 ~demand:2.0 ~links:[ 1 ];
  Fair_share.Delta.flush d;
  check (Alcotest.float 1e-9) "f0 saturates" 1.0 (Fair_share.Delta.rate d ~id:0);
  Fair_share.Delta.add_flow d ~id:2 ~demand:2.0 ~links:[ 1 ];
  Fair_share.Delta.flush d;
  check (Alcotest.float 1e-9) "f1 halves" 0.5 (Fair_share.Delta.rate d ~id:1);
  check (Alcotest.float 1e-9) "f2 halves" 0.5 (Fair_share.Delta.rate d ~id:2);
  check (Alcotest.float 1e-9) "f0 keeps its rate" 1.0
    (Fair_share.Delta.rate d ~id:0);
  check Alcotest.bool "f0 outside the delta scope" false
    (List.mem 0 (delta_touched d))

let test_delta_pending_removal () =
  (* A flow rerouted and then removed before any flush never entered a
     committed solution: its stale rate must not be subtracted from its
     new links' load, or a later arrival there is wrongly absorbed at
     full demand. *)
  let capacity = capacity_all 1.0 in
  let d = Fair_share.Delta.create ~capacity () in
  Fair_share.Delta.add_flow d ~id:0 ~demand:0.6 ~links:[ 0 ];
  Fair_share.Delta.add_flow d ~id:1 ~demand:0.7 ~links:[ 1 ];
  Fair_share.Delta.flush d;
  Fair_share.Delta.set_links d ~id:0 ~links:[ 1 ];
  Fair_share.Delta.remove_flow d ~id:0;
  Fair_share.Delta.add_flow d ~id:2 ~demand:0.85 ~links:[ 1 ];
  Fair_share.Delta.flush d;
  check (Alcotest.float 1e-9) "f1 shares link 1" 0.5
    (Fair_share.Delta.rate d ~id:1);
  check (Alcotest.float 1e-9) "f2 shares link 1" 0.5
    (Fair_share.Delta.rate d ~id:2)

let test_delta_departure_propagates () =
  (* A departure frees capacity; the clamped survivors must be promoted
     and rise to the new level. *)
  let capacity = capacity_all 3.0 in
  let d = Fair_share.Delta.create ~capacity () in
  Fair_share.Delta.add_flow d ~id:0 ~demand:5.0 ~links:[ 0 ];
  Fair_share.Delta.add_flow d ~id:1 ~demand:5.0 ~links:[ 0 ];
  Fair_share.Delta.add_flow d ~id:2 ~demand:5.0 ~links:[ 0 ];
  Fair_share.Delta.flush d;
  check (Alcotest.float 1e-9) "thirds" 1.0 (Fair_share.Delta.rate d ~id:1);
  Fair_share.Delta.remove_flow d ~id:0;
  Fair_share.Delta.flush d;
  check (Alcotest.float 1e-9) "f1 rises" 1.5 (Fair_share.Delta.rate d ~id:1);
  check (Alcotest.float 1e-9) "f2 rises" 1.5 (Fair_share.Delta.rate d ~id:2);
  check (Alcotest.float 1e-9) "f0 gone" 0.0 (Fair_share.Delta.rate d ~id:0)

let test_delta_promotion_merge () =
  (* Two saturated links, flows with negative and out-of-order ids.
     Three arrivals lower both levels, so the first round promotes every
     clamped flow, and their ids interleave the scope's: the second
     round must solve the merged scope in ascending id order. Two
     fast-path arrivals on a roomy link ride along in the same flush. *)
  let caps = [| 10.0; 1e6; 6.0 |] in
  let capacity l = caps.(l) in
  let d = Fair_share.Delta.create ~capacity () in
  let flows = ref [] in
  let add id demand links =
    Fair_share.Delta.add_flow d ~id ~demand ~links;
    flows := (id, { Fair_share_reference.demand; links }) :: !flows
  in
  add 7 5.0 [ 0 ];
  add (-3) 5.0 [ 0; 2 ];
  add 12 5.0 [ 2 ];
  add (-8) 5.0 [ 0 ];
  add 1 5.0 [ 2 ];
  Fair_share.Delta.flush d;
  let before = Fair_share.Delta.stats d in
  add 100 1.0 [ 1 ];
  add 4 5.0 [ 0 ];
  add (-100) 1.0 [ 1 ];
  add (-5) 5.0 [ 0; 2 ];
  add 9 5.0 [ 2 ];
  Fair_share.Delta.flush d;
  let after = Fair_share.Delta.stats d in
  check Alcotest.bool "the flush ran a second round" true
    (after.Fair_share.Delta.expansions > before.Fair_share.Delta.expansions);
  check (Alcotest.list Alcotest.int)
    "fast-path ids, then the scope by ascending id"
    [ 100; -100; -8; -5; -3; 1; 4; 7; 9; 12 ]
    (delta_touched d);
  let ids, inputs = List.split (List.rev !flows) in
  let want = Fair_share_reference.compute ~capacity (Array.of_list inputs) in
  List.iteri
    (fun i id ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "flow %d" id)
        want.(i)
        (Fair_share.Delta.rate d ~id))
    ids

let test_delta_slot_reuse () =
  (* Flow state lives in slots that a removed flow frees; the slot is
     handed out again from the second flush after the removal on. Ids
     5, 1 and 9 take slots 0, 1 and 2; after 1 leaves, 3 takes slot 1.
     Member vectors run by id, not by slot, and the removed id reads
     rate 0. *)
  let capacity = capacity_all 6.0 in
  let d = Fair_share.Delta.create ~capacity () in
  let flows = Hashtbl.create 4 in
  let add id demand =
    Fair_share.Delta.add_flow d ~id ~demand ~links:[ 0 ];
    Hashtbl.replace flows id { Fair_share_reference.demand; links = [ 0 ] }
  in
  add 5 4.0;
  add 1 4.0;
  add 9 1.0;
  Fair_share.Delta.flush d;
  Fair_share.Delta.remove_flow d ~id:1;
  Hashtbl.remove flows 1;
  Fair_share.Delta.flush d;
  Fair_share.Delta.flush d;
  add 3 4.0;
  Fair_share.Delta.flush d;
  check (Alcotest.list Alcotest.int) "members by ascending id" [ 3; 5; 9 ]
    (List.rev
       (Fair_share.Delta.fold_link d ~link:0 (fun id _ acc -> id :: acc) []));
  check Alcotest.int "flow count" 3 (Fair_share.Delta.flow_count d);
  check (Alcotest.float 0.0) "removed id reads 0" 0.0
    (Fair_share.Delta.rate d ~id:1);
  let ids = [ 3; 5; 9 ] in
  let want =
    Fair_share_reference.compute ~capacity
      (Array.of_list (List.map (Hashtbl.find flows) ids))
  in
  List.iteri
    (fun i id ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "flow %d" id)
        want.(i)
        (Fair_share.Delta.rate d ~id))
    ids

(* Work gate on the delta solver, counted in minor words (never wall
   time): add/remove churn on one saturated link with 3,000 members,
   each flush promoting every member into the scope. Flow state lives
   in unboxed columns, so committing a rate allocates nothing: 31.0
   words per event, budget that plus 15 %. Boxed rates in flow records
   and a boxed float per freeze cost 9,087.5. *)
let delta_churn_words_per_event = 36.0

let test_delta_churn_words () =
  let members = 3000 in
  let demand id = [| 0.5; 1.0; 2.0 |].(id mod 3) in
  let d = Fair_share.Delta.create ~capacity:(capacity_all 1000.0) () in
  for id = 0 to members - 1 do
    Fair_share.Delta.add_flow d ~id ~demand:(demand id) ~links:[ 0 ]
  done;
  Fair_share.Delta.flush d;
  let absent = ref members in
  let rounds = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    let leave = (!absent + 7919) mod (members + 1) in
    Fair_share.Delta.remove_flow d ~id:leave;
    Fair_share.Delta.add_flow d ~id:!absent ~demand:(demand !absent)
      ~links:[ 0 ];
    absent := leave;
    Fair_share.Delta.flush d
  done;
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int (2 * rounds) in
  check Alcotest.int "every member stays" members
    (Fair_share.Delta.flow_count d);
  if per_event > delta_churn_words_per_event then
    Alcotest.failf "%.2f minor words per delta event (budget %.1f)" per_event
      delta_churn_words_per_event

(* Link 9 has no valid capacity: any call naming it must raise before
   it changes any state. *)
let capacity_bad_9 = function 9 -> 0.0 | _ -> 1.0

let test_delta_add_flow_exception_safe () =
  let d = Fair_share.Delta.create ~capacity:capacity_bad_9 () in
  Alcotest.check_raises "bad link"
    (Invalid_argument "Fair_share.Delta: non-positive capacity") (fun () ->
      Fair_share.Delta.add_flow d ~id:0 ~demand:2.0 ~links:[ 0; 9 ]);
  check Alcotest.int "no flow added" 0 (Fair_share.Delta.flow_count d);
  check Alcotest.int "no event counted" 0
    (Fair_share.Delta.stats d).Fair_share.Delta.events;
  Fair_share.Delta.add_flow d ~id:0 ~demand:2.0 ~links:[ 0 ];
  Fair_share.Delta.add_flow d ~id:1 ~demand:2.0 ~links:[ 0 ];
  Fair_share.Delta.flush d;
  check (Alcotest.float 1e-9) "f0 shares link 0" 0.5
    (Fair_share.Delta.rate d ~id:0);
  check (Alcotest.float 1e-9) "f1 shares link 0" 0.5
    (Fair_share.Delta.rate d ~id:1)

let test_delta_set_links_exception_safe () =
  let d = Fair_share.Delta.create ~capacity:capacity_bad_9 () in
  Fair_share.Delta.add_flow d ~id:0 ~demand:2.0 ~links:[ 0 ];
  Fair_share.Delta.add_flow d ~id:1 ~demand:2.0 ~links:[ 0 ];
  Fair_share.Delta.flush d;
  let before = Fair_share.Delta.stats d in
  Alcotest.check_raises "bad link"
    (Invalid_argument "Fair_share.Delta: non-positive capacity") (fun () ->
      Fair_share.Delta.set_links d ~id:0 ~links:[ 1; 9 ]);
  check Alcotest.int "no event counted" before.Fair_share.Delta.events
    (Fair_share.Delta.stats d).Fair_share.Delta.events;
  (* f0 must still be a member of link 0: when f1 leaves, f0 takes the
     whole link. *)
  Fair_share.Delta.remove_flow d ~id:1;
  Fair_share.Delta.flush d;
  check (Alcotest.float 1e-9) "f0 takes link 0" 1.0
    (Fair_share.Delta.rate d ~id:0)

(* Bit-identity pin: a fixed, seeded schedule of a few hundred flows on
   a few saturated links (plus one roomy link for the fast path), with
   ids arriving out of order. Every flush appends its [touched] list,
   the exact bits of every live rate (ascending id) and the stats to a
   digest. Any change to the solver's float order, scope order or
   counters moves the digest; a rewrite that keeps it is bit-identical
   on this schedule. *)
let delta_pin_digest () =
  let caps = [| 40.0; 25.0; 60.0; 30.0; 45.0; 1e6 |] in
  let n_links = Array.length caps in
  let capacity l = caps.(l) in
  let d = Fair_share.Delta.create ~capacity () in
  let rng = Random.State.make [| 18; 2307 |] in
  let pool = Array.init 1000 (fun i -> i) in
  for i = Array.length pool - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  let next = ref 0 in
  let alive = Array.make (Array.length pool) 0 and n_alive = ref 0 in
  let demands = [| 0.5; 1.0; 1.0; 2.0; 0.0 |] in
  let random_links () =
    let len = 1 + Random.State.int rng 3 in
    List.sort_uniq Int.compare
      (List.init len (fun _ -> Random.State.int rng n_links))
  in
  let buf = Buffer.create 65536 in
  let flush () =
    Fair_share.Delta.flush d;
    List.iter
      (fun id -> Buffer.add_string buf (string_of_int id ^ ","))
      (delta_touched d);
    Buffer.add_char buf '|';
    let ids =
      List.sort Int.compare (Array.to_list (Array.sub alive 0 !n_alive))
    in
    List.iter
      (fun id ->
        Buffer.add_string buf
          (Int64.to_string
             (Int64.bits_of_float (Fair_share.Delta.rate d ~id)) ^ ","))
      ids;
    let s = Fair_share.Delta.stats d in
    Buffer.add_string buf
      (Printf.sprintf "|%d %d %d %d %d %d\n" s.Fair_share.Delta.solves
         s.events s.flows_touched s.links_touched s.expansions s.promotions)
  in
  let add () =
    if !next < Array.length pool then begin
      let id = pool.(!next) in
      incr next;
      let demand =
        if Random.State.bool rng then
          demands.(Random.State.int rng (Array.length demands))
        else Random.State.float rng 3.0
      in
      Fair_share.Delta.add_flow d ~id ~demand ~links:(random_links ());
      alive.(!n_alive) <- id;
      incr n_alive
    end
  in
  let pick () = Random.State.int rng !n_alive in
  for i = 1 to 300 do
    add ();
    if i mod 25 = 0 then flush ()
  done;
  for _ = 1 to 600 do
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 -> add ()
    | 3 | 4 | 5 when !n_alive > 0 ->
        let k = pick () in
        Fair_share.Delta.remove_flow d ~id:alive.(k);
        decr n_alive;
        alive.(k) <- alive.(!n_alive)
    | 6 | 7 when !n_alive > 0 ->
        Fair_share.Delta.set_links d ~id:alive.(pick ())
          ~links:(random_links ())
    | _ -> flush ());
    if Random.State.int rng 4 = 0 then flush ()
  done;
  flush ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_delta_bit_identity_pin () =
  check Alcotest.string "schedule digest"
    "e647e3247dc2ba7c770a91d3b8564d0c" (delta_pin_digest ())

(* --- Fluid engine -------------------------------------------------------- *)

(* A 2-host dumbbell: h0 - s0 - s1 - h1, all 1 Gbps. *)
let dumbbell () =
  let topo = Topology.create () in
  let h0 = Topology.add_node topo ~ip:(Ipv4.of_octets 10 0 0 1) Topology.Host in
  let s0 = Topology.add_node topo Topology.Switch in
  let s1 = Topology.add_node topo Topology.Switch in
  let h1 = Topology.add_node topo ~ip:(Ipv4.of_octets 10 0 1 1) Topology.Host in
  let l0, _ = Topology.add_duplex topo ~capacity:1e9 h0 s0 in
  let l1, _ = Topology.add_duplex topo ~capacity:1e9 s0 s1 in
  let l2, _ = Topology.add_duplex topo ~capacity:1e9 s1 h1 in
  (topo, h0, h1, [ l0; l1; l2 ])

let key_i i =
  Flow_key.make
    ~src:(Ipv4.of_octets 10 0 0 1)
    ~dst:(Ipv4.of_octets 10 0 1 1)
    ~src_port:(1000 + i) ~dst_port:(2000 + i) ()

let test_fluid_single_flow_bits () =
  let topo, _, _, path = dumbbell () in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  let flow = ref None in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         flow := Some (Fluid.start_flow ~demand:1e9 fluid ~key:(key_i 0) ~path)));
  ignore (Sched.run ~until:(Time.of_sec 10.0) sched);
  match !flow with
  | None -> Alcotest.fail "flow not started"
  | Some f ->
      check (Alcotest.float 1e6) "rate is full demand" 1e9 (Fluid.current_rate fluid f);
      check (Alcotest.float 1e7) "10 Gbit delivered in 10 s" 1e10
        (Fluid.delivered_bits fluid f)

let test_fluid_sharing_and_stop () =
  let topo, _, _, path = dumbbell () in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  let f1 = ref None and f2 = ref None in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         f1 := Some (Fluid.start_flow ~demand:1e9 fluid ~key:(key_i 1) ~path)));
  ignore
    (Sched.schedule_at sched (Time.of_sec 2.0) (fun () ->
         f2 := Some (Fluid.start_flow ~demand:1e9 fluid ~key:(key_i 2) ~path)));
  ignore
    (Sched.schedule_at sched (Time.of_sec 6.0) (fun () ->
         Fluid.stop_flow fluid (Option.get !f2)));
  ignore (Sched.run ~until:(Time.of_sec 8.0) sched);
  let f1 = Option.get !f1 and f2 = Option.get !f2 in
  (* f1: 2s at 1G, 4s at 0.5G, 2s at 1G = 6 Gbit.
     f2: 4s at 0.5G = 2 Gbit. *)
  check (Alcotest.float 2e7) "f1 bits" 6e9 (Fluid.delivered_bits fluid f1);
  check (Alcotest.float 2e7) "f2 bits" 2e9 (Fluid.delivered_bits fluid f2);
  check (Alcotest.float 1.0) "f1 back to full rate" 1e9
    (Fluid.current_rate fluid f1);
  check (Alcotest.float 1e-9) "stopped rate" 0.0 (Fluid.current_rate fluid f2);
  check Alcotest.int "one active flow" 1 (Fluid.flow_count fluid)

let test_fluid_reroute () =
  (* Diamond: h0-s0, s0-s1a-s2, s0-s1b-s2, s2-h1; reroute moves load. *)
  let topo = Topology.create () in
  let h0 = Topology.add_node topo ~ip:(Ipv4.of_octets 10 0 0 1) Topology.Host in
  let s0 = Topology.add_node topo Topology.Switch in
  let sa = Topology.add_node topo Topology.Switch in
  let sb = Topology.add_node topo Topology.Switch in
  let s2 = Topology.add_node topo Topology.Switch in
  let h1 = Topology.add_node topo ~ip:(Ipv4.of_octets 10 0 1 1) Topology.Host in
  let l_in, _ = Topology.add_duplex topo ~capacity:10e9 h0 s0 in
  let l0a, _ = Topology.add_duplex topo ~capacity:1e9 s0 sa in
  let la2, _ = Topology.add_duplex topo ~capacity:1e9 sa s2 in
  let l0b, _ = Topology.add_duplex topo ~capacity:1e9 s0 sb in
  let lb2, _ = Topology.add_duplex topo ~capacity:1e9 sb s2 in
  let l_out, _ = Topology.add_duplex topo ~capacity:10e9 s2 h1 in
  let path_a = [ l_in; l0a; la2; l_out ] in
  let path_b = [ l_in; l0b; lb2; l_out ] in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  let f1 = ref None and f2 = ref None in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         f1 := Some (Fluid.start_flow ~demand:1e9 fluid ~key:(key_i 1) ~path:path_a);
         f2 := Some (Fluid.start_flow ~demand:1e9 fluid ~key:(key_i 2) ~path:path_a)));
  (* Both collide on path A: 0.5 Gbps each. At t=5 move f2 to B. *)
  ignore
    (Sched.schedule_at sched (Time.of_sec 5.0) (fun () ->
         Fluid.set_path fluid (Option.get !f2) path_b));
  ignore (Sched.run ~until:(Time.of_sec 10.0) sched);
  let f1 = Option.get !f1 and f2 = Option.get !f2 in
  check (Alcotest.float 1.0) "f1 full after reroute" 1e9 (Fluid.current_rate fluid f1);
  check (Alcotest.float 1.0) "f2 full after reroute" 1e9 (Fluid.current_rate fluid f2);
  (* 5s at 0.5 + 5s at 1.0 = 7.5 Gbit each *)
  check (Alcotest.float 2e7) "f1 bits" 7.5e9 (Fluid.delivered_bits fluid f1);
  check (Alcotest.float 2e7) "f2 bits" 7.5e9 (Fluid.delivered_bits fluid f2);
  check (Alcotest.float 1.0) "link a carries f1 only" 1e9
    (Fluid.link_load fluid l0a.Topology.link_id);
  check (Alcotest.float 1e-6) "utilization" 1.0
    (Fluid.link_utilization fluid l0a.Topology.link_id)

let test_finite_flow_exact_completion () =
  let topo, _, _, path = dumbbell () in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  let completed = ref [] in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         ignore
           (Fluid.start_finite_flow ~demand:1e9 fluid ~key:(key_i 0) ~path
              ~size_bits:1e9 ~on_complete:(fun f ->
                completed := (Time.to_sec (Sched.now sched), f) :: !completed))));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  match !completed with
  | [ (at, f) ] ->
      check (Alcotest.float 1e-6) "1 Gbit at 1 Gbps completes at 1s" 1.0 at;
      check (Alcotest.float 1e3) "delivered exactly the size" 1e9
        (Fluid.delivered_bits fluid f);
      check Alcotest.bool "flow stopped" false f.Flow.active;
      check Alcotest.int "no active flows left" 0 (Fluid.flow_count fluid);
      check (Alcotest.float 1e4) "total accounts completed flows" 1e9
        (Fluid.total_delivered_bits fluid)
  | other -> Alcotest.failf "expected one completion, got %d" (List.length other)

let test_finite_flows_sharing_eta_reaim () =
  (* Two finite flows share the bottleneck at 0.5 Gbps each; when the
     small one finishes the big one's completion must be re-aimed to
     the faster rate.
     small: 0.5 Gbit -> done at t=1. big: 1.5 Gbit: 0.5 by t=1, then
     1 Gbit at full rate -> done at t=2. *)
  let topo, _, _, path = dumbbell () in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  let times = ref [] in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         ignore
           (Fluid.start_finite_flow ~demand:1e9 fluid ~key:(key_i 1) ~path
              ~size_bits:0.5e9 ~on_complete:(fun _ ->
                times := ("small", Time.to_sec (Sched.now sched)) :: !times));
         ignore
           (Fluid.start_finite_flow ~demand:1e9 fluid ~key:(key_i 2) ~path
              ~size_bits:1.5e9 ~on_complete:(fun _ ->
                times := ("big", Time.to_sec (Sched.now sched)) :: !times))));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  match List.rev !times with
  | [ ("small", t1); ("big", t2) ] ->
      check (Alcotest.float 1e-5) "small at 1s" 1.0 t1;
      check (Alcotest.float 1e-5) "big re-aimed to 2s" 2.0 t2
  | other -> Alcotest.failf "unexpected completions (%d)" (List.length other)

let test_finite_flow_stop_before_completion () =
  let topo, _, _, path = dumbbell () in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  let fired = ref 0 in
  let flow = ref None in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         flow :=
           Some
             (Fluid.start_finite_flow ~demand:1e9 fluid ~key:(key_i 0) ~path
                ~size_bits:10e9 ~on_complete:(fun _ -> incr fired))));
  ignore
    (Sched.schedule_at sched (Time.of_sec 2.0) (fun () ->
         Fluid.stop_flow fluid (Option.get !flow)));
  ignore (Sched.run ~until:(Time.of_sec 20.0) sched);
  check Alcotest.int "manual stop suppresses completion" 0 !fired;
  check (Alcotest.float 1e4) "partial delivery recorded" 2e9
    (Fluid.delivered_bits fluid (Option.get !flow))

let test_fluid_sampling () =
  let topo, _, _, path = dumbbell () in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  Fluid.start_sampling fluid ~every:(Time.of_sec 1.0);
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         ignore (Fluid.start_flow ~demand:1e9 fluid ~key:(key_i 0) ~path)));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  let series = Fluid.aggregate_series fluid in
  check Alcotest.int "samples at 0..5s" 6 (Horse_stats.Series.length series);
  check (Alcotest.float 1.0) "sampled aggregate" 1e9
    (Horse_stats.Series.max_value series);
  (* per-host series exists for the destination *)
  let topo_dst = 3 (* h1 in dumbbell *) in
  check Alcotest.bool "host series" true (Fluid.host_series fluid topo_dst <> None)

let test_fluid_validation () =
  let topo, _, _, path = dumbbell () in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  Alcotest.check_raises "bad demand"
    (Invalid_argument "Fluid.start_flow: demand <= 0") (fun () ->
      ignore (Fluid.start_flow ~demand:0.0 fluid ~key:(key_i 0) ~path));
  Alcotest.check_raises "discontiguous path"
    (Invalid_argument "Fluid: discontiguous path") (fun () ->
      ignore
        (Fluid.start_flow fluid ~key:(key_i 0) ~path:[ List.nth path 0; List.nth path 2 ]))

let test_fluid_coalescing () =
  (* A burst of k flow events inside one scheduler instant must cost
     one max-min solve, and still land on the max-min allocation. *)
  let k = 10 in
  let topo, _, _, path = dumbbell () in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         for i = 0 to k - 1 do
           ignore (Fluid.start_flow ~demand:1e9 fluid ~key:(key_i i) ~path)
         done));
  ignore (Sched.run ~until:(Time.of_sec 1.0) sched);
  check Alcotest.int "k requests recorded" k (Fluid.recompute_requests fluid);
  check Alcotest.int "one solve for the burst" 1 (Fluid.recompute_count fluid);
  let active = Array.of_list (Fluid.active_flows fluid) in
  let want =
    Fair_share_reference.compute
      ~capacity:(fun l -> (Topology.link topo l).Topology.capacity)
      (Array.map
         (fun (f : Flow.t) ->
           {
             Fair_share_reference.demand = f.Flow.demand;
             links = Flow.link_ids f;
           })
         active)
  in
  Array.iteri
    (fun i f ->
      check (Alcotest.float 1.0) "reference rate" want.(i)
        (Fluid.current_rate fluid f))
    active

let test_fluid_coalesced_reads_are_fresh () =
  (* Reading a rate inside the mutating instant must observe the
     post-solve allocation even though the deferred flush has not run
     yet. *)
  let topo, _, _, path = dumbbell () in
  let sched = Sched.create () in
  let fluid = Fluid.create sched topo in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         let f1 = Fluid.start_flow ~demand:1e9 fluid ~key:(key_i 1) ~path in
         let f2 = Fluid.start_flow ~demand:1e9 fluid ~key:(key_i 2) ~path in
         check (Alcotest.float 1.0) "f1 sees the shared rate" 0.5e9
           (Fluid.current_rate fluid f1);
         check (Alcotest.float 1.0) "f2 sees the shared rate" 0.5e9
           (Fluid.current_rate fluid f2)));
  ignore (Sched.run ~until:(Time.of_sec 1.0) sched)

(* --- Fluid readers under random churn ---------------------------------- *)

(* Hosts h0, h1 on switch s0 and h2, h3 on switch s1; s0 reaches s1
   through a narrow middle switch [a] or a wide one [b]. The candidate
   paths cross in the middle, and one is empty (a locally delivered
   flow). *)
let churn_topology () =
  let topo = Topology.create () in
  let host i = Topology.add_node topo ~ip:(Ipv4.of_octets 10 7 0 (i + 1)) Topology.Host in
  let switch () = Topology.add_node topo Topology.Switch in
  let h0 = host 0 in
  let h1 = host 1 in
  let s0 = switch () in
  let a = switch () in
  let b = switch () in
  let s1 = switch () in
  let h2 = host 2 in
  let h3 = host 3 in
  let duplex c x y = Topology.add_duplex topo ~capacity:c x y in
  let h0s0, s0h0 = duplex 1e9 h0 s0 in
  let h1s0, _ = duplex 1e9 h1 s0 in
  let s0a, as0 = duplex 0.6e9 s0 a in
  let as1, s1a = duplex 0.6e9 a s1 in
  let s0b, bs0 = duplex 1e9 s0 b in
  let bs1, s1b = duplex 1e9 b s1 in
  let s1h2, h2s1 = duplex 1e9 s1 h2 in
  let s1h3, _ = duplex 1e9 s1 h3 in
  let paths =
    [|
      [ h0s0; s0a; as1; s1h2 ];
      [ h0s0; s0b; bs1; s1h2 ];
      [ h1s0; s0a; as1; s1h3 ];
      [ h1s0; s0b; bs1; s1h3 ];
      [ h0s0; s0a; as1; s1h3 ];
      [ h2s1; s1b; bs0; s0h0 ];
      [ h2s1; s1a; as0 ];
      [];
    |]
  in
  (topo, paths)

type churn_op =
  | Op_start of float * int * int  (* demand, path, key *)
  | Op_finite of float * int * int * float  (* ... and size in bits *)
  | Op_stop of int  (* the k-th active flow, mod the active count *)
  | Op_set_path of int * int
  | Op_advance of float  (* seconds; finite flows may complete *)

let gen_churn =
  let open QCheck2.Gen in
  let path = int_range 0 7 and key = int_range 0 3 in
  let demand = float_range 0.05e9 1.5e9 in
  list_size (int_range 1 40)
    (frequency
       [
         (4, map3 (fun d p k -> Op_start (d, p, k)) demand path key);
         ( 2,
           let* d = demand and* p = path and* k = key in
           let* size = float_range 0.01e9 1e9 in
           return (Op_finite (d, p, k, size)) );
         (2, map (fun k -> Op_stop k) (int_range 0 100));
         (2, map2 (fun k p -> Op_set_path (k, p)) (int_range 0 100) path);
         (2, map (fun dt -> Op_advance dt) (float_range 0.01 1.0));
       ])

let live_ids live =
  List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) live [])

(* Every reader checked against a naive recomputation from the model's
   own live set and each flow's path. *)
let check_fluid_readers topo fluid ~live ~stopped =
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  let active = Fluid.active_flows fluid in
  let ids = List.map (fun (f : Flow.t) -> f.Flow.id) active in
  let rate f = Fluid.current_rate fluid f in
  let sum flows = List.fold_left (fun acc f -> acc +. rate f) 0.0 flows in
  let ends_at node (f : Flow.t) =
    match List.rev f.Flow.path with
    | [] -> false
    | (l : Topology.link) :: _ -> l.Topology.dst = node
  in
  ids = live_ids live
  && List.for_all
       (fun (f : Flow.t) -> f.Flow.active && Hashtbl.find live f.Flow.id == f)
       active
  && Fluid.flow_count fluid = List.length active
  && Fluid.completed_flow_count fluid = stopped
  && close (Fluid.total_rx_rate fluid) (sum active)
  && List.for_all
       (fun (l : Topology.link) ->
         let lid = l.Topology.link_id in
         let on = List.filter (fun f -> List.mem lid (Flow.link_ids f)) active in
         List.equal ( == ) (Fluid.flows_on_link fluid lid) on
         && close (Fluid.link_load fluid lid) (sum on))
       (Topology.links topo)
  && List.for_all
       (fun (n : Topology.node) ->
         close
           (Fluid.host_rx_rate fluid n.Topology.id)
           (sum (List.filter (ends_at n.Topology.id) active)))
       (Topology.nodes topo)

let prop_fluid_readers_under_churn =
  qtest ~count:100 "readers under churn"
    gen_churn (fun ops ->
      let topo, paths = churn_topology () in
      let sched = Sched.create () in
      let fluid = Fluid.create sched topo in
      let live : (int, Flow.t) Hashtbl.t = Hashtbl.create 16 in
      let stopped = ref 0 in
      let now = ref Time.zero in
      (* Each op runs in an instant of its own, so its solve drains
         before the readers look. *)
      let step dt action =
        now := Time.add !now dt;
        ignore (Sched.schedule_at sched !now action);
        ignore (Sched.run ~until:!now sched)
      in
      let retire (f : Flow.t) =
        if Hashtbl.mem live f.Flow.id then begin
          Hashtbl.remove live f.Flow.id;
          incr stopped
        end
      in
      let nth k =
        match live_ids live with
        | [] -> None
        | ids -> Some (Hashtbl.find live (List.nth ids (k mod List.length ids)))
      in
      let started f = Hashtbl.replace live f.Flow.id f in
      List.for_all
        (fun op ->
          (match op with
          | Op_start (demand, p, k) ->
              step (Time.of_ms 1) (fun () ->
                  started
                    (Fluid.start_flow ~demand fluid ~key:(key_i k) ~path:paths.(p)))
          | Op_finite (demand, p, k, size_bits) ->
              step (Time.of_ms 1) (fun () ->
                  started
                    (Fluid.start_finite_flow ~demand fluid ~key:(key_i k)
                       ~path:paths.(p) ~size_bits ~on_complete:retire))
          | Op_stop k ->
              step (Time.of_ms 1) (fun () ->
                  Option.iter
                    (fun f ->
                      Fluid.stop_flow fluid f;
                      retire f)
                    (nth k))
          | Op_set_path (k, p) ->
              step (Time.of_ms 1) (fun () ->
                  Option.iter (fun f -> Fluid.set_path fluid f paths.(p)) (nth k))
          | Op_advance dt -> step (Time.of_sec dt) ignore);
          check_fluid_readers topo fluid ~live ~stopped:!stopped)
        ops)

(* --- Packet engine -------------------------------------------------------- *)

let test_packet_engine_delivery () =
  let topo, h0, h1, path = dumbbell () in
  let sched = Sched.create () in
  let engine = Packet_engine.create sched topo () in
  (* Static routes along the dumbbell. *)
  let dst_ip = Ipv4.of_octets 10 0 1 1 in
  List.iteri
    (fun i (l : Topology.link) ->
      let node = if i = 0 then h0.Topology.id else l.Topology.src in
      Fwd.set_route (Packet_engine.table engine node) (Prefix.host dst_ip)
        ~next_hops:[ l.Topology.link_id ])
    path;
  let key = key_i 0 in
  (* 100 Mbps of 1250-byte packets for 1 s = 10^4 packets... keep it
     small: 1 Mbps -> 100 packets. *)
  ignore
    (Packet_engine.start_stream engine ~key ~at:h0.Topology.id ~rate:1e6
       ~pkt_bytes:1250);
  ignore (Sched.run ~until:(Time.of_sec 1.0) sched);
  check Alcotest.int "all delivered" (Packet_engine.tx_packets engine / 3)
    (Packet_engine.rx_packets engine);
  check Alcotest.int "no drops" 0 (Packet_engine.drops engine);
  check Alcotest.bool "bytes at destination" true
    (Packet_engine.rx_bytes engine h1.Topology.id > 0);
  check Alcotest.int "nothing at source" 0
    (Packet_engine.rx_bytes engine h0.Topology.id)

let test_packet_engine_matches_fluid_uncongested () =
  (* On an uncongested path the packet engine and the fluid model must
     agree on delivered volume (within one packet). *)
  let rate = 8e6 and pkt_bytes = 1000 and seconds = 2.0 in
  let topo, h0, _, path = dumbbell () in
  let sched = Sched.create () in
  let engine = Packet_engine.create sched topo () in
  let dst_ip = Ipv4.of_octets 10 0 1 1 in
  List.iteri
    (fun i (l : Topology.link) ->
      let node = if i = 0 then h0.Topology.id else l.Topology.src in
      Fwd.set_route (Packet_engine.table engine node) (Prefix.host dst_ip)
        ~next_hops:[ l.Topology.link_id ])
    path;
  ignore
    (Packet_engine.start_stream engine ~key:(key_i 0) ~at:h0.Topology.id ~rate
       ~pkt_bytes);
  ignore (Sched.run ~until:(Time.of_sec seconds) sched);
  let packet_bits = float_of_int (Packet_engine.total_rx_bytes engine) *. 8.0 in
  let sched2 = Sched.create () in
  let fluid = Fluid.create sched2 topo in
  let flow = ref None in
  ignore
    (Sched.schedule_at sched2 Time.zero (fun () ->
         flow := Some (Fluid.start_flow ~demand:rate fluid ~key:(key_i 0) ~path)));
  ignore (Sched.run ~until:(Time.of_sec seconds) sched2);
  let fluid_bits = Fluid.delivered_bits fluid (Option.get !flow) in
  check
    (Alcotest.float (float_of_int (pkt_bytes * 8 * 2)))
    "engines agree" fluid_bits packet_bits

let test_packet_engine_tail_drop () =
  (* Two 1 Gbps streams into one 1 Gbps link: once its 100-packet queue
     fills, about half the packets must drop. *)
  let topo = Topology.create () in
  let h0 = Topology.add_node topo ~ip:(Ipv4.of_octets 10 9 0 1) Topology.Host in
  let h1 = Topology.add_node topo ~ip:(Ipv4.of_octets 10 9 0 2) Topology.Host in
  let s = Topology.add_node topo Topology.Switch in
  let h2 = Topology.add_node topo ~ip:(Ipv4.of_octets 10 9 0 3) Topology.Host in
  let l0, _ = Topology.add_duplex topo ~capacity:1e9 h0 s in
  let l1, _ = Topology.add_duplex topo ~capacity:1e9 h1 s in
  let l2, _ = Topology.add_duplex topo ~capacity:1e9 s h2 in
  let sched = Sched.create () in
  let engine = Packet_engine.create sched topo () in
  let dst = Ipv4.of_octets 10 9 0 3 in
  Fwd.set_route (Packet_engine.table engine h0.Topology.id) (Prefix.host dst)
    ~next_hops:[ l0.Topology.link_id ];
  Fwd.set_route (Packet_engine.table engine h1.Topology.id) (Prefix.host dst)
    ~next_hops:[ l1.Topology.link_id ];
  Fwd.set_route (Packet_engine.table engine s.Topology.id) (Prefix.host dst)
    ~next_hops:[ l2.Topology.link_id ];
  let mk i src =
    ignore
      (Packet_engine.start_stream engine
         ~key:
           (Flow_key.make ~src ~dst ~src_port:(7000 + i) ~dst_port:(8000 + i) ())
         ~at:(if i = 0 then h0.Topology.id else h1.Topology.id)
         ~rate:1e9 ~pkt_bytes:1500)
  in
  mk 0 (Ipv4.of_octets 10 9 0 1);
  mk 1 (Ipv4.of_octets 10 9 0 2);
  ignore (Sched.run ~until:(Time.of_ms 100) sched);
  let rx = Packet_engine.rx_packets engine in
  let drops = Packet_engine.drops engine in
  check Alcotest.bool "significant drops" true (drops > rx / 4);
  (* Delivered rate close to the bottleneck capacity. *)
  let delivered_rate =
    float_of_int (Packet_engine.total_rx_bytes engine) *. 8.0 /. 0.1
  in
  check Alcotest.bool "bottleneck saturated" true
    (delivered_rate > 0.9e9 && delivered_rate < 1.05e9)

let test_packet_engine_latency () =
  (* Store-and-forward over 3 links: delay = 3 x (tx + prop).
     1250 B at 1 Gbps = 10 us tx; prop 10 us -> 60 us end to end. *)
  let topo, h0, _, path = dumbbell () in
  let sched = Sched.create () in
  let engine = Packet_engine.create sched topo () in
  let dst_ip = Ipv4.of_octets 10 0 1 1 in
  List.iteri
    (fun i (l : Topology.link) ->
      let node = if i = 0 then h0.Topology.id else l.Topology.src in
      Fwd.set_route (Packet_engine.table engine node) (Prefix.host dst_ip)
        ~next_hops:[ l.Topology.link_id ])
    path;
  Packet_engine.inject engine ~at:h0.Topology.id ~key:(key_i 0) ~bytes_len:1250;
  ignore (Sched.run ~until:(Time.of_ms 10) sched);
  check Alcotest.int "delivered" 1 (Packet_engine.rx_packets engine);
  check (Alcotest.float 1e-9) "exact store-and-forward latency" 60e-6
    (Packet_engine.mean_delay engine);
  check (Alcotest.float 1e-9) "max equals mean for one packet" 60e-6
    (Packet_engine.max_delay engine)

let test_packet_engine_queueing_delay () =
  (* Back-to-back burst into one link: the n-th packet waits behind
     n-1 transmissions, so mean delay grows beyond the unloaded
     latency. *)
  let topo, h0, _, path = dumbbell () in
  let sched = Sched.create () in
  let engine = Packet_engine.create sched topo () in
  let dst_ip = Ipv4.of_octets 10 0 1 1 in
  List.iteri
    (fun i (l : Topology.link) ->
      let node = if i = 0 then h0.Topology.id else l.Topology.src in
      Fwd.set_route (Packet_engine.table engine node) (Prefix.host dst_ip)
        ~next_hops:[ l.Topology.link_id ])
    path;
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         for _ = 1 to 10 do
           Packet_engine.inject engine ~at:h0.Topology.id ~key:(key_i 0)
             ~bytes_len:1250
         done));
  ignore (Sched.run ~until:(Time.of_ms 10) sched);
  check Alcotest.int "all delivered" 10 (Packet_engine.rx_packets engine);
  check Alcotest.bool "queueing inflates the tail" true
    (Packet_engine.max_delay engine > 100e-6);
  check Alcotest.bool "mean above unloaded latency" true
    (Packet_engine.mean_delay engine > 60e-6)

let test_packet_engine_no_route_drops () =
  let topo, h0, _, _ = dumbbell () in
  let sched = Sched.create () in
  let engine = Packet_engine.create sched topo () in
  Packet_engine.inject engine ~at:h0.Topology.id ~key:(key_i 0) ~bytes_len:100;
  ignore (Sched.run ~until:(Time.of_ms 10) sched);
  check Alcotest.int "dropped" 1 (Packet_engine.drops engine);
  check Alcotest.int "not delivered" 0 (Packet_engine.rx_packets engine)

let () =
  Alcotest.run "horse_dataplane"
    [
      ( "fwd",
        [
          Alcotest.test_case "lpm order" `Quick test_fwd_lpm_order;
          Alcotest.test_case "remove/replace" `Quick test_fwd_remove_and_replace;
          Alcotest.test_case "lengths in use" `Quick test_fwd_lengths_in_use;
          Alcotest.test_case "lookup_select" `Quick test_fwd_lookup_select;
          Alcotest.test_case "empty group rejected" `Quick
            test_fwd_empty_group_rejected;
          prop_fwd_matches_naive;
        ] );
      ( "fair_share",
        [
          Alcotest.test_case "single bottleneck" `Quick
            test_fair_share_single_bottleneck;
          Alcotest.test_case "demand limited" `Quick test_fair_share_demand_limited;
          Alcotest.test_case "two bottlenecks" `Quick test_fair_share_two_bottlenecks;
          Alcotest.test_case "cascade" `Quick test_fair_share_cascade;
          Alcotest.test_case "empty path" `Quick test_fair_share_empty_path;
          Alcotest.test_case "zero demand" `Quick test_fair_share_zero_demand;
          prop_fair_share_feasible;
          prop_fair_share_maxmin_bottleneck;
          prop_fair_share_differential;
          prop_fair_share_differential_invariants;
          prop_fair_share_delta_schedule;
          prop_fair_share_delta_shuffled_ids;
          prop_fair_share_delta_crowded;
          Alcotest.test_case "delta: scoped arrival" `Quick
            test_delta_scoped_arrival;
          Alcotest.test_case "delta: departure propagates" `Quick
            test_delta_departure_propagates;
          Alcotest.test_case "delta: pending flow removal" `Quick
            test_delta_pending_removal;
          Alcotest.test_case "delta: promotion merge keeps scope order" `Quick
            test_delta_promotion_merge;
          Alcotest.test_case "delta: bit-identity pin" `Quick
            test_delta_bit_identity_pin;
          Alcotest.test_case "delta: add_flow is exception-safe" `Quick
            test_delta_add_flow_exception_safe;
          Alcotest.test_case "delta: set_links is exception-safe" `Quick
            test_delta_set_links_exception_safe;
          Alcotest.test_case "delta: slot reuse" `Quick test_delta_slot_reuse;
          Alcotest.test_case "delta: minor words per churn event" `Quick
            test_delta_churn_words;
        ] );
      ( "fluid",
        [
          Alcotest.test_case "single flow bits" `Quick test_fluid_single_flow_bits;
          Alcotest.test_case "sharing and stop" `Quick test_fluid_sharing_and_stop;
          Alcotest.test_case "reroute" `Quick test_fluid_reroute;
          Alcotest.test_case "finite flow exact completion" `Quick
            test_finite_flow_exact_completion;
          Alcotest.test_case "finite flows re-aim on sharing" `Quick
            test_finite_flows_sharing_eta_reaim;
          Alcotest.test_case "manual stop of finite flow" `Quick
            test_finite_flow_stop_before_completion;
          Alcotest.test_case "sampling" `Quick test_fluid_sampling;
          Alcotest.test_case "validation" `Quick test_fluid_validation;
          Alcotest.test_case "recompute coalescing" `Quick test_fluid_coalescing;
          Alcotest.test_case "coalesced reads are fresh" `Quick
            test_fluid_coalesced_reads_are_fresh;
          prop_fluid_readers_under_churn;
        ] );
      ( "packet_engine",
        [
          Alcotest.test_case "delivery" `Quick test_packet_engine_delivery;
          Alcotest.test_case "agrees with fluid" `Quick
            test_packet_engine_matches_fluid_uncongested;
          Alcotest.test_case "tail drop at bottleneck" `Quick
            test_packet_engine_tail_drop;
          Alcotest.test_case "no route drops" `Quick
            test_packet_engine_no_route_drops;
          Alcotest.test_case "exact latency" `Quick test_packet_engine_latency;
          Alcotest.test_case "queueing delay" `Quick
            test_packet_engine_queueing_delay;
        ] );
    ]
