open Horse_net
open Horse_engine

let local_peer = -1

type route = {
  prefix : Prefix.t;
  attrs : Msg.attrs;
  iattrs : Attr_intern.interned;
  peer : int;
  peer_bgp_id : Ipv4.t;
  learned_at : Time.t;
}

let pp_route fmt r =
  Format.fprintf fmt "%a via peer %d (%a)" Prefix.pp r.prefix r.peer
    Msg.pp_attrs r.attrs

module Prefix_tbl = Hashtbl.Make (struct
  type t = Prefix.t

  let equal = Prefix.equal
  let hash p = Ipv4.hash (Prefix.network p) lxor Prefix.length p
end)

type t = {
  adj_in : (int, route Prefix_tbl.t) Hashtbl.t;  (* peer -> prefix -> route *)
  local : route Prefix_tbl.t;
  cands : route list Prefix_tbl.t;
      (* per-prefix candidate set, kept sorted best-first under
         [cmp_route]; the incremental mirror of adj_in + local *)
  loc : route list Prefix_tbl.t;
  intern : Attr_intern.t;
}

let create ?intern () =
  {
    adj_in = Hashtbl.create 8;
    local = Prefix_tbl.create 16;
    cands = Prefix_tbl.create 64;
    loc = Prefix_tbl.create 64;
    intern =
      (match intern with Some i -> i | None -> Attr_intern.create ());
  }

let intern_table t = t.intern

let peer_table t peer =
  match Hashtbl.find_opt t.adj_in peer with
  | Some table -> table
  | None ->
      let table = Prefix_tbl.create 32 in
      Hashtbl.add t.adj_in peer table;
      table

(* --- decision order ------------------------------------------------ *)

let local_pref (r : route) = Option.value r.attrs.Msg.local_pref ~default:100
let as_path_len (r : route) = r.iattrs.Attr_intern.path_len
let med (r : route) = Option.value r.attrs.Msg.med ~default:0

let neighbor_as (r : route) =
  match r.attrs.Msg.as_path with [] -> None | asn :: _ -> Some asn

(* Total order implementing decision steps 1-3 (higher LOCAL_PREF,
   shorter AS_PATH, lower ORIGIN) followed by the stable tiebreaks
   (steps 5-6: lower BGP id, lower peer id). Step 4 (MED) is not a
   total order — it only compares routes sharing a neighbour AS — so
   it is applied as a filter over the leading equivalence class at
   decide time. The AS-path length comparison reads the interned
   cached length: O(1), not O(path). *)
let cmp_route (a : route) (b : route) =
  let c = Int.compare (local_pref b) (local_pref a) in
  if c <> 0 then c
  else
    let c = Int.compare (as_path_len a) (as_path_len b) in
    if c <> 0 then c
    else
      let c =
        Int.compare
          (Msg.origin_to_int a.attrs.Msg.origin)
          (Msg.origin_to_int b.attrs.Msg.origin)
      in
      if c <> 0 then c
      else
        let c = Ipv4.compare a.peer_bgp_id b.peer_bgp_id in
        if c <> 0 then c else Int.compare a.peer b.peer

(* --- incremental candidate maintenance ----------------------------- *)

let rec insert_sorted r = function
  | [] -> [ r ]
  | x :: rest as l ->
      if cmp_route r x <= 0 then r :: l else x :: insert_sorted r rest

let cands_replace t prefix l =
  match l with
  | [] -> Prefix_tbl.remove t.cands prefix
  | _ :: _ -> Prefix_tbl.replace t.cands prefix l

let cands_remove t ~peer prefix =
  match Prefix_tbl.find_opt t.cands prefix with
  | None -> ()
  | Some l -> cands_replace t prefix (List.filter (fun r -> r.peer <> peer) l)

let cands_set t prefix (r : route) =
  let l = Option.value (Prefix_tbl.find_opt t.cands prefix) ~default:[] in
  let l = List.filter (fun r' -> r'.peer <> r.peer) l in
  Prefix_tbl.replace t.cands prefix (insert_sorted r l)

let set_in t ~peer ~peer_bgp_id ~at prefix attrs =
  let iattrs = Attr_intern.intern t.intern attrs in
  let r =
    {
      prefix;
      attrs = iattrs.Attr_intern.attrs;
      iattrs;
      peer;
      peer_bgp_id;
      learned_at = at;
    }
  in
  Prefix_tbl.replace (peer_table t peer) prefix r;
  cands_set t prefix r

let withdraw_in t ~peer prefix =
  match Hashtbl.find_opt t.adj_in peer with
  | None -> ()
  | Some table ->
      if Prefix_tbl.mem table prefix then begin
        Prefix_tbl.remove table prefix;
        cands_remove t ~peer prefix
      end

(* One pass over the peer's table updates every affected candidate
   list; callers then run one refresh per returned prefix. *)
let drop_peer t ~peer =
  match Hashtbl.find_opt t.adj_in peer with
  | None -> []
  | Some table ->
      let prefixes = Prefix_tbl.fold (fun p _ acc -> p :: acc) table [] in
      Hashtbl.remove t.adj_in peer;
      List.iter (fun p -> cands_remove t ~peer p) prefixes;
      prefixes

let add_local t ~at prefix attrs =
  let iattrs = Attr_intern.intern t.intern attrs in
  let r =
    {
      prefix;
      attrs = iattrs.Attr_intern.attrs;
      iattrs;
      peer = local_peer;
      peer_bgp_id = Ipv4.any;
      learned_at = at;
    }
  in
  Prefix_tbl.replace t.local prefix r;
  cands_set t prefix r

let remove_local t prefix =
  if Prefix_tbl.mem t.local prefix then begin
    Prefix_tbl.remove t.local prefix;
    cands_remove t ~peer:local_peer prefix
  end

(* --- decision process ---------------------------------------------- *)

(* Step 4: a route only loses to a strictly-better MED via the same
   neighbour AS. Applied to the (small) leading equivalence class. *)
let med_filter survivors =
  List.filter
    (fun r ->
      not
        (List.exists
           (fun r' -> neighbor_as r' = neighbor_as r && med r' < med r)
           survivors))
    survivors

let decide ~multipath t prefix =
  match Prefix_tbl.find_opt t.cands prefix with
  | None | Some [] -> []
  | Some (head :: _ as l) ->
      let same_class r =
        local_pref r = local_pref head
        && as_path_len r = as_path_len head
        && r.attrs.Msg.origin = head.attrs.Msg.origin
      in
      (* The list is sorted, so the class is a prefix of it — and
         within the class the order is already the step 5-6
         tiebreak. *)
      let rec take = function
        | r :: rest when same_class r -> r :: take rest
        | _ :: _ | [] -> []
      in
      let survivors = med_filter (take l) in
      if multipath then survivors
      else (match survivors with [] -> [] | winner :: _ -> [ winner ])

(* The decision process's raw input, read from the tables themselves
   rather than from [cands]. *)
let candidates t prefix =
  let from_peers =
    Hashtbl.fold
      (fun _peer table acc ->
        match Prefix_tbl.find_opt table prefix with
        | Some r -> r :: acc
        | None -> acc)
      t.adj_in []
  in
  match Prefix_tbl.find_opt t.local prefix with
  | Some r -> r :: from_peers
  | None -> from_peers

type refresh_outcome = Unchanged | Changed of route list

let routes_equal a b =
  List.equal
    (fun (x : route) (y : route) ->
      x.peer = y.peer
      && Prefix.equal x.prefix y.prefix
      && Attr_intern.equal x.iattrs y.iattrs)
    a b

let refresh ?(multipath = true) t prefix =
  let best = decide ~multipath t prefix in
  let old = Option.value (Prefix_tbl.find_opt t.loc prefix) ~default:[] in
  if routes_equal best old then Unchanged
  else begin
    (match best with
    | [] -> Prefix_tbl.remove t.loc prefix
    | _ :: _ -> Prefix_tbl.replace t.loc prefix best);
    Changed best
  end

let best t prefix = Option.value (Prefix_tbl.find_opt t.loc prefix) ~default:[]

let loc_rib t =
  Prefix_tbl.fold (fun p routes acc -> (p, routes) :: acc) t.loc []
  |> List.sort (fun (p, _) (q, _) -> Prefix.compare p q)

let loc_rib_size t = Prefix_tbl.length t.loc

let adj_in t ~peer =
  match Hashtbl.find_opt t.adj_in peer with
  | None -> []
  | Some table ->
      Prefix_tbl.fold (fun p r acc -> (p, r.attrs) :: acc) table []
      |> List.sort (fun (p, _) (q, _) -> Prefix.compare p q)
