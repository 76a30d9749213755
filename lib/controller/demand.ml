type flow = { src : int; dst : int; tag : int }

type cell = {
  flow : flow;
  mutable demand : float;
  mutable converged : bool;  (* receiver-limited *)
}

let group_by key flows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let k = key c.flow in
      Hashtbl.replace tbl k (c :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    flows;
  tbl

(* Bound on the fixpoint loop's rounds. *)
let max_iters = 100

let estimate flows =
  let cells =
    List.map (fun flow -> { flow; demand = 0.0; converged = false }) flows
  in
  let by_src = group_by (fun f -> f.src) cells in
  let by_dst = group_by (fun f -> f.dst) cells in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < max_iters do
    changed := false;
    incr iters;
    (* Source pass: spread each sender's spare capacity over its
       unconverged flows. *)
    Hashtbl.iter
      (fun _src outgoing ->
        let converged_demand =
          List.fold_left
            (fun acc c -> if c.converged then acc +. c.demand else acc)
            0.0 outgoing
        in
        let unconverged = List.filter (fun c -> not c.converged) outgoing in
        match unconverged with
        | [] -> ()
        | _ :: _ ->
            let share =
              Float.max 0.0 (1.0 -. converged_demand)
              /. float_of_int (List.length unconverged)
            in
            List.iter
              (fun c ->
                if Float.abs (c.demand -. share) > 1e-12 then begin
                  c.demand <- share;
                  changed := true
                end)
              unconverged)
      by_src;
    (* Receiver pass: water-fill each overloaded receiver; flows cut
       down by the receiver become converged. *)
    Hashtbl.iter
      (fun _dst incoming ->
        let total = List.fold_left (fun acc c -> acc +. c.demand) 0.0 incoming in
        if total > 1.0 +. 1e-12 then begin
          (* Iteratively exempt flows smaller than the equal share. *)
          let sorted =
            List.sort (fun a b -> Float.compare a.demand b.demand) incoming
          in
          let rec fill remaining_cap = function
            | [] -> ()
            | (c :: rest : cell list) ->
                let n = List.length (c :: rest) in
                let share = remaining_cap /. float_of_int n in
                if c.demand <= share +. 1e-12 then begin
                  (* small flow keeps its demand *)
                  fill (remaining_cap -. c.demand) rest
                end
                else
                  (* every remaining flow is capped at the share *)
                  List.iter
                    (fun c ->
                      if (not c.converged) || Float.abs (c.demand -. share) > 1e-12
                      then begin
                        c.demand <- share;
                        c.converged <- true;
                        changed := true
                      end)
                    (c :: rest)
          in
          fill 1.0 sorted
        end)
      by_dst
  done;
  List.map (fun c -> (c.flow, c.demand)) cells

let big_flows ?(threshold = 0.1) estimated =
  List.filter (fun (_, d) -> d >= threshold) estimated
