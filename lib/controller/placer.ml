open Horse_topo

type request = { tag : int; demand_bps : float; candidates : Spf.path list }

type placement = { p_tag : int; path : Spf.path option }

let link_ids path = List.map (fun (l : Topology.link) -> l.Topology.link_id) path

let global_first_fit ~capacity requests =
  let reserved : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let load l = Option.value (Hashtbl.find_opt reserved l) ~default:0.0 in
  let reserve path demand =
    List.iter (fun l -> Hashtbl.replace reserved l (load l +. demand)) (link_ids path)
  in
  let fits path demand =
    List.for_all (fun l -> load l +. demand <= capacity l +. 1e-6) (link_ids path)
  in
  List.map
    (fun r ->
      match List.find_opt (fun p -> fits p r.demand_bps) r.candidates with
      | Some path ->
          reserve path r.demand_bps;
          { p_tag = r.tag; path = Some path }
      | None -> { p_tag = r.tag; path = None })
    requests

let oversubscription ~capacity placements =
  let loads : (int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (demand, path) ->
      List.iter
        (fun l ->
          Hashtbl.replace loads l
            (Option.value (Hashtbl.find_opt loads l) ~default:0.0 +. demand))
        (link_ids path))
    placements;
  Hashtbl.fold
    (fun l load acc -> acc +. Float.max 0.0 (load -. capacity l))
    loads 0.0

(* The annealing schedule: 1000 moves from T0 = 1 Gbps of excess,
   cooled geometrically. *)
let iters = 1000
let initial_temperature = 1e9
let cooling = 0.995

let annealing ~capacity ~rng requests =
  let requests_arr = Array.of_list requests in
  let n = Array.length requests_arr in
  let movable =
    Array.to_list
      (Array.init n (fun i -> i))
    |> List.filter (fun i -> requests_arr.(i).candidates <> [])
  in
  match movable with
  | [] -> List.map (fun r -> { p_tag = r.tag; path = None }) requests
  | _ :: _ ->
      let movable = Array.of_list movable in
      let choice = Array.map (fun _ -> 0) requests_arr in
      let energy () =
        oversubscription ~capacity
          (Array.to_list
             (Array.mapi
                (fun i r ->
                  match r.candidates with
                  | [] -> (0.0, [])
                  | cs -> (r.demand_bps, List.nth cs (choice.(i) mod List.length cs)))
                requests_arr))
      in
      let current = ref (energy ()) in
      let best = Array.copy choice in
      let best_energy = ref !current in
      let temperature = ref initial_temperature in
      for _ = 1 to iters do
        let i = movable.(Horse_engine.Rng.int rng (Array.length movable)) in
        let r = requests_arr.(i) in
        let n_cands = List.length r.candidates in
        if n_cands > 1 then begin
          let old = choice.(i) in
          let proposal = Horse_engine.Rng.int rng n_cands in
          if proposal <> old then begin
            choice.(i) <- proposal;
            let e = energy () in
            let de = e -. !current in
            let accept =
              de <= 0.0
              || Horse_engine.Rng.float rng 1.0 < Float.exp (-.de /. !temperature)
            in
            if accept then begin
              current := e;
              if e < !best_energy then begin
                best_energy := e;
                Array.blit choice 0 best 0 n
              end
            end
            else choice.(i) <- old
          end
        end;
        temperature := !temperature *. cooling
      done;
      Array.to_list
        (Array.mapi
           (fun i r ->
             match r.candidates with
             | [] -> { p_tag = r.tag; path = None }
             | cs -> { p_tag = r.tag; path = Some (List.nth cs (best.(i) mod List.length cs)) })
           requests_arr)
