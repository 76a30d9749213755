type flow_input = { demand : float; links : int list }

(* Per-link bookkeeping, maintained incrementally as flows freeze so
   each progressive-filling round is O(#links + #flows). *)
type link_state = {
  cap : float;
  mutable frozen_load : float;
  mutable unfrozen : int;
}

let compute ~capacity flows =
  let n = Array.length flows in
  let rates = Array.make n 0.0 in
  let frozen = Array.make n false in
  let links : (int, link_state) Hashtbl.t = Hashtbl.create 64 in
  let link_state l =
    match Hashtbl.find_opt links l with
    | Some s -> s
    | None ->
        let cap = capacity l in
        if cap <= 0.0 then
          invalid_arg "Fair_share_reference.compute: non-positive capacity";
        let s = { cap; frozen_load = 0.0; unfrozen = 0 } in
        Hashtbl.add links l s;
        s
  in
  Array.iter
    (fun f ->
      if f.demand < 0.0 then invalid_arg "Fair_share_reference.compute: negative demand";
      List.iter (fun l -> (link_state l).unfrozen <- (link_state l).unfrozen + 1) f.links)
    flows;
  let n_unfrozen = ref n in
  let freeze i rate =
    rates.(i) <- rate;
    frozen.(i) <- true;
    decr n_unfrozen;
    List.iter
      (fun l ->
        let s = link_state l in
        s.frozen_load <- s.frozen_load +. rate;
        s.unfrozen <- s.unfrozen - 1)
      flows.(i).links
  in
  (* Zero-demand and pathless flows are trivially assigned. *)
  Array.iteri
    (fun i f ->
      if f.demand = 0.0 then freeze i 0.0
      else if f.links = [] then freeze i f.demand)
    flows;
  while !n_unfrozen > 0 do
    let link_min = ref None in
    Hashtbl.iter
      (fun l s ->
        if s.unfrozen > 0 then begin
          let share =
            Float.max 0.0 (s.cap -. s.frozen_load) /. float_of_int s.unfrozen
          in
          match !link_min with
          | None -> link_min := Some (l, share)
          | Some (_, best) -> if share < best then link_min := Some (l, share)
        end)
      links;
    let demand_min = ref None in
    Array.iteri
      (fun i f ->
        if not frozen.(i) then
          match !demand_min with
          | None -> demand_min := Some f.demand
          | Some d -> if f.demand < d then demand_min := Some f.demand)
      flows;
    let freeze_at_demand d =
      Array.iteri
        (fun i f -> if (not frozen.(i)) && f.demand = d then freeze i d)
        flows
    in
    match (!link_min, !demand_min) with
    | None, None -> assert false (* n_unfrozen > 0 implies a min demand *)
    | None, Some d -> freeze_at_demand d
    | Some (_, s), Some d when d <= s -> freeze_at_demand d
    | Some (bottleneck, s), _ ->
        Array.iteri
          (fun i f ->
            if (not frozen.(i)) && List.memq bottleneck f.links then freeze i s)
          flows
  done;
  rates

let link_loads flows rates =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      List.iter
        (fun l ->
          let cur = Option.value (Hashtbl.find_opt tbl l) ~default:0.0 in
          Hashtbl.replace tbl l (cur +. rates.(i)))
        f.links)
    flows;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
