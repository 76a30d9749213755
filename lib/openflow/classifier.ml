module Mask = Ofmatch.Mask
module Ftbl = Hashtbl.Make (Ofmatch.Fields_key)
module Mtbl = Hashtbl.Make (Ofmatch.Mask)

type 'a rule = {
  r_match : Ofmatch.t;
  r_prio : int;
  r_seq : int;
  r_value : 'a;
}

(* The match order: priority descending, insertion sequence ascending. *)
let better a b = a.r_prio > b.r_prio || (a.r_prio = b.r_prio && a.r_seq < b.r_seq)

(* ------------------------------------------------------------------ *)
(* Tuple-space search: one hash table per distinct wildcard mask.      *)
(* ------------------------------------------------------------------ *)

type 'a bucket = {
  b_mask : Mask.t;
  b_id : int;  (* creation order — the deterministic probe tie-break *)
  b_rules : 'a rule list ref Ftbl.t;  (* canonical fields -> match order *)
  mutable b_count : int;
  mutable b_max_prio : int;
}

type 'a t = {
  tbl : 'a bucket Mtbl.t;
  mutable ordered : 'a bucket array;  (* (b_max_prio desc, b_id asc) *)
  mutable dirty : bool;
  mutable count : int;
  mutable next_id : int;
  mutable probes : int;
}

let create () =
  {
    tbl = Mtbl.create 64;
    ordered = [||];
    dirty = false;
    count = 0;
    next_id = 0;
    probes = 0;
  }

let rec insert_sorted r = function
  | [] -> [ r ]
  | r' :: _ as l when better r r' -> r :: l
  | r' :: rest -> r' :: insert_sorted r rest

let probes ts = ts.probes

let insert ts ~match_ ~priority ~seq value =
  let r = { r_match = match_; r_prio = priority; r_seq = seq; r_value = value } in
  let mask = Ofmatch.mask_of r.r_match in
  let b =
    match Mtbl.find_opt ts.tbl mask with
    | Some b -> b
    | None ->
        let b =
          {
            b_mask = mask;
            b_id = ts.next_id;
            b_rules = Ftbl.create 16;
            b_count = 0;
            b_max_prio = min_int;
          }
        in
        ts.next_id <- ts.next_id + 1;
        Mtbl.add ts.tbl mask b;
        ts.dirty <- true;
        b
  in
  let key = Ofmatch.fields_of_match r.r_match in
  (match Ftbl.find_opt b.b_rules key with
  | Some cell -> cell := insert_sorted r !cell
  | None -> Ftbl.add b.b_rules key (ref [ r ]));
  b.b_count <- b.b_count + 1;
  ts.count <- ts.count + 1;
  if r.r_prio > b.b_max_prio then begin
    b.b_max_prio <- r.r_prio;
    ts.dirty <- true
  end

let bucket_max_prio b =
  Ftbl.fold
    (fun _ cell acc -> List.fold_left (fun acc r -> max acc r.r_prio) acc !cell)
    b.b_rules min_int

let remove ts ~match_ ~seq =
  let mask = Ofmatch.mask_of match_ in
  match Mtbl.find_opt ts.tbl mask with
  | None -> ()
  | Some b -> (
      let key = Ofmatch.fields_of_match match_ in
      match Ftbl.find_opt b.b_rules key with
      | None -> ()
      | Some cell ->
          if List.exists (fun r -> r.r_seq = seq) !cell then begin
            (match List.filter (fun r -> r.r_seq <> seq) !cell with
            | [] -> Ftbl.remove b.b_rules key
            | kept -> cell := kept);
            b.b_count <- b.b_count - 1;
            ts.count <- ts.count - 1;
            if b.b_count = 0 then begin
              Mtbl.remove ts.tbl mask;
              ts.dirty <- true
            end
            else begin
              let mp = bucket_max_prio b in
              if mp <> b.b_max_prio then begin
                b.b_max_prio <- mp;
                ts.dirty <- true
              end
            end
          end)

let ensure_ordered ts =
  if ts.dirty then begin
    let arr = Array.of_list (Mtbl.fold (fun _ b acc -> b :: acc) ts.tbl []) in
    Array.sort
      (fun a b ->
        match Int.compare b.b_max_prio a.b_max_prio with
        | 0 -> Int.compare a.b_id b.b_id
        | c -> c)
      arr;
    ts.ordered <- arr;
    ts.dirty <- false
  end

(* Probe buckets in descending max-priority order, short-circuiting
   once no remaining bucket can beat the best rule found so far. *)
let lookup ts (fields : Ofmatch.fields) =
  ensure_ordered ts;
  let best = ref None in
  (try
     Array.iter
       (fun b ->
         (match !best with
         | Some br when b.b_max_prio < br.r_prio -> raise Exit
         | _ -> ());
         ts.probes <- ts.probes + 1;
         match Ftbl.find_opt b.b_rules (Mask.project b.b_mask fields) with
         | Some { contents = r :: _ } -> (
             match !best with
             | Some br when not (better r br) -> ()
             | _ -> best := Some r)
         | Some { contents = [] } | None -> ())
       ts.ordered
   with Exit -> ());
  !best
