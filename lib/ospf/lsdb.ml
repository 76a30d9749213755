open Horse_net

type t = { store : (int32, Ospf_msg.lsa) Hashtbl.t }

let key id = Ipv4.to_int32 id

let create () = { store = Hashtbl.create 32 }

type install_outcome = Newer | Duplicate | Older

let install t (lsa : Ospf_msg.lsa) =
  match Hashtbl.find_opt t.store (key lsa.Ospf_msg.adv_router) with
  | Some existing when existing.Ospf_msg.seq > lsa.Ospf_msg.seq -> Older
  | Some existing when existing.Ospf_msg.seq = lsa.Ospf_msg.seq -> Duplicate
  | Some _ | None ->
      Hashtbl.replace t.store (key lsa.Ospf_msg.adv_router) lsa;
      Newer

let lookup t id = Hashtbl.find_opt t.store (key id)

let lsas t =
  Hashtbl.fold (fun _ l acc -> l :: acc) t.store []
  |> List.sort (fun (a : Ospf_msg.lsa) b ->
         Ipv4.compare a.Ospf_msg.adv_router b.Ospf_msg.adv_router)

let size t = Hashtbl.length t.store

type route = { prefix : Prefix.t; cost : int; next_hops : Ipv4.t list }

(* Adjacency metric from [a] towards [b], if advertised. *)
let adj_metric (lsa : Ospf_msg.lsa) towards =
  List.find_map
    (function
      | Ospf_msg.Point_to_point { neighbor; metric } when Ipv4.equal neighbor towards
        ->
          Some metric
      | Ospf_msg.Point_to_point _ | Ospf_msg.Stub _ -> None)
    lsa.Ospf_msg.links

let routes t ~self =
  match lookup t self with
  | None -> []
  | Some _root ->
      (* Dijkstra over router ids; dist and first-hop sets. *)
      let dist : (int32, int) Hashtbl.t = Hashtbl.create 32 in
      let hops : (int32, Ipv4.t list) Hashtbl.t = Hashtbl.create 32 in
      let visited : (int32, unit) Hashtbl.t = Hashtbl.create 32 in
      Hashtbl.replace dist (key self) 0;
      Hashtbl.replace hops (key self) [];
      let pick_next () =
        Hashtbl.fold
          (fun k d best ->
            if Hashtbl.mem visited k then best
            else
              match best with
              | Some (_, bd) when bd <= d -> best
              | Some _ | None -> Some (k, d))
          dist None
      in
      let rec loop () =
        match pick_next () with
        | None -> ()
        | Some (uk, du) ->
            Hashtbl.replace visited uk ();
            (match Hashtbl.find_opt t.store uk with
            | None -> ()
            | Some lsa_u ->
                List.iter
                  (function
                    | Ospf_msg.Stub _ -> ()
                    | Ospf_msg.Point_to_point { neighbor = v; metric } -> (
                        (* Two-way check: v must advertise u back. *)
                        let u = Ipv4.of_int32 uk in
                        match Hashtbl.find_opt t.store (key v) with
                        | Some lsa_v when adj_metric lsa_v u <> None ->
                            let nd = du + metric in
                            let first_hops_via =
                              if Ipv4.equal u self then [ v ]
                              else
                                Option.value
                                  (Hashtbl.find_opt hops uk)
                                  ~default:[]
                            in
                            let cur =
                              Option.value
                                (Hashtbl.find_opt dist (key v))
                                ~default:max_int
                            in
                            if nd < cur then begin
                              Hashtbl.replace dist (key v) nd;
                              Hashtbl.replace hops (key v) first_hops_via
                            end
                            else if nd = cur then begin
                              let merged =
                                List.sort_uniq Ipv4.compare
                                  (first_hops_via
                                  @ Option.value
                                      (Hashtbl.find_opt hops (key v))
                                      ~default:[])
                              in
                              Hashtbl.replace hops (key v) merged
                            end
                        | Some _ | None -> ()))
                  lsa_u.Ospf_msg.links);
            loop ()
      in
      loop ();
      (* Attach stub prefixes; equal-cost router attachments merge. *)
      let best : (Prefix.t, int * Ipv4.t list) Hashtbl.t = Hashtbl.create 32 in
      Hashtbl.iter
        (fun rk d ->
          match Hashtbl.find_opt t.store rk with
          | None -> ()
          | Some lsa ->
              List.iter
                (function
                  | Ospf_msg.Point_to_point _ -> ()
                  | Ospf_msg.Stub { prefix; metric } ->
                      if not (Ipv4.equal (Ipv4.of_int32 rk) self) then begin
                        let cost = d + metric in
                        let nh =
                          Option.value (Hashtbl.find_opt hops rk) ~default:[]
                        in
                        match Hashtbl.find_opt best prefix with
                        | Some (c, _) when c < cost -> ()
                        | Some (c, existing) when c = cost ->
                            Hashtbl.replace best prefix
                              (c, List.sort_uniq Ipv4.compare (nh @ existing))
                        | Some _ | None -> Hashtbl.replace best prefix (cost, nh)
                      end)
                lsa.Ospf_msg.links)
        dist;
      Hashtbl.fold
        (fun prefix (cost, next_hops) acc ->
          if next_hops = [] then acc else { prefix; cost; next_hops } :: acc)
        best []
      |> List.sort (fun a b -> Prefix.compare a.prefix b.prefix)
