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

module Prefix_tbl = Hashtbl.Make (struct
  type t = Prefix.t

  let equal = Prefix.equal
  let hash p = Ipv4.hash (Prefix.network p) lxor Prefix.length p
end)

(* The one slot value of an Adj-RIB-In row that holds no route. *)
let no_route =
  let iattrs = Attr_intern.absent in
  {
    prefix = Prefix.any;
    attrs = iattrs.Attr_intern.attrs;
    iattrs;
    peer = min_int;
    peer_bgp_id = Ipv4.any;
    learned_at = Time.zero;
  }

(* Every per-prefix table is an array indexed by the prefix's id. The
   id arrays share one capacity; an Adj-RIB-In row grows to it on its
   first write past its end. *)
type t = {
  ids : int Prefix_tbl.t;  (* prefix -> id, assigned on first sight *)
  mutable prefixes : Prefix.t array;  (* id -> prefix *)
  mutable count : int;  (* ids assigned *)
  mutable rows : route array array;
      (* Adj-RIB-In: row [peer + 1] (row 0 holds the local routes),
         slot [id], [no_route] when empty *)
  mutable cands : route list array;
      (* per-id candidate set, kept sorted best-first under
         [cmp_route]; the incremental mirror of [rows] *)
  mutable loc : route list array;  (* Loc-RIB, [] when absent *)
  mutable loc_size : int;  (* non-empty [loc] entries *)
  intern : Attr_intern.t;
}

let initial_ids = 16

let create ?intern () =
  {
    ids = Prefix_tbl.create initial_ids;
    prefixes = Array.make initial_ids Prefix.any;
    count = 0;
    rows = [||];
    cands = Array.make initial_ids [];
    loc = Array.make initial_ids [];
    loc_size = 0;
    intern =
      (match intern with Some i -> i | None -> Attr_intern.create ());
  }

let intern_table t = t.intern

(* --- prefix ids ------------------------------------------------------ *)

let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let id t prefix =
  match Prefix_tbl.find t.ids prefix with
  | id -> id
  | exception Not_found ->
      let id = t.count in
      if id = Array.length t.prefixes then begin
        let cap = 2 * id in
        t.prefixes <- extend t.prefixes cap Prefix.any;
        t.cands <- extend t.cands cap [];
        t.loc <- extend t.loc cap []
      end;
      t.prefixes.(id) <- prefix;
      t.count <- id + 1;
      Prefix_tbl.add t.ids prefix id;
      id

let find_id t prefix =
  match Prefix_tbl.find t.ids prefix with id -> id | exception Not_found -> -1

let prefix_of_id t id = t.prefixes.(id)
let compare_ids t a b = Prefix.compare t.prefixes.(a) t.prefixes.(b)

(* The row a write to [peer] goes to, grown to the id capacity. *)
let row_for_write t peer =
  let r = peer + 1 in
  if r < 0 then invalid_arg (Printf.sprintf "Rib: bad peer id %d" peer);
  if r >= Array.length t.rows then
    t.rows <- extend t.rows (max (r + 1) (2 * Array.length t.rows)) [||];
  let row = t.rows.(r) in
  if Array.length row >= t.count then row
  else begin
    let row = extend row (Array.length t.prefixes) no_route in
    t.rows.(r) <- row;
    row
  end

let slot t peer id =
  let r = peer + 1 in
  if r < 0 || r >= Array.length t.rows then no_route
  else
    let row = t.rows.(r) in
    if id < Array.length row then row.(id) else no_route

(* --- decision order ------------------------------------------------ *)

let local_pref (r : route) = Option.value r.attrs.Msg.local_pref ~default:100
let as_path_len (r : route) = r.iattrs.Attr_intern.path_len
let med (r : route) = Option.value r.attrs.Msg.med ~default:0

(* -1 for an empty AS_PATH: ASNs are non-negative. *)
let neighbor_as (r : route) =
  match r.attrs.Msg.as_path with [] -> -1 | asn :: _ -> asn

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

(* [l] without [peer]'s route; [l] itself when it holds none. *)
let rec remove_peer peer = function
  | [] -> []
  | (x : route) :: rest as l ->
      if x.peer = peer then rest
      else
        let rest' = remove_peer peer rest in
        if rest' == rest then l else x :: rest'

(* [l] with [r] in place of its peer's old route, in one pass. *)
let rec replace_sorted (r : route) = function
  | [] -> [ r ]
  | (x : route) :: rest ->
      if x.peer = r.peer then insert_sorted r rest
      else if cmp_route r x <= 0 then r :: remove_peer r.peer (x :: rest)
      else x :: replace_sorted r rest

and insert_sorted r = function
  | [] -> [ r ]
  | x :: rest as l ->
      if cmp_route r x <= 0 then r :: l else x :: insert_sorted r rest

let set_in_id t ~peer ~peer_bgp_id ~at id attrs =
  let iattrs = Attr_intern.intern t.intern attrs in
  let r =
    {
      prefix = t.prefixes.(id);
      attrs = iattrs.Attr_intern.attrs;
      iattrs;
      peer;
      peer_bgp_id;
      learned_at = at;
    }
  in
  (* Retained before the old record goes, so an equal re-announcement
     keeps its record (and uid) alive. *)
  Attr_intern.retain iattrs;
  let row = row_for_write t peer in
  let old = row.(id) in
  row.(id) <- r;
  t.cands.(id) <- replace_sorted r t.cands.(id);
  if old != no_route then Attr_intern.release t.intern old.iattrs

let withdraw_in_id t ~peer id =
  let old = slot t peer id in
  if old != no_route then begin
    t.rows.(peer + 1).(id) <- no_route;
    t.cands.(id) <- remove_peer peer t.cands.(id);
    Attr_intern.release t.intern old.iattrs
  end

(* One pass over the peer's row updates every affected candidate
   list; the ids come back in prefix order, for one refresh each. *)
let drop_peer_ids t ~peer =
  let r = peer + 1 in
  if r < 0 || r >= Array.length t.rows then []
  else begin
    let row = t.rows.(r) in
    t.rows.(r) <- [||];
    let dropped = ref [] in
    for id = Array.length row - 1 downto 0 do
      if row.(id) != no_route then begin
        t.cands.(id) <- remove_peer peer t.cands.(id);
        Attr_intern.release t.intern row.(id).iattrs;
        dropped := id :: !dropped
      end
    done;
    List.sort (compare_ids t) !dropped
  end

let add_local t ~at prefix attrs =
  set_in_id t ~peer:local_peer ~peer_bgp_id:Ipv4.any ~at (id t prefix) attrs

(* --- decision process ---------------------------------------------- *)

(* Step 4: a route only loses to a strictly-better MED via the same
   neighbour AS. Applied to the (small) leading equivalence class. *)
let med_filter survivors =
  let beaten r =
    List.exists
      (fun r' -> neighbor_as r' = neighbor_as r && med r' < med r)
      survivors
  in
  (* Usually no route loses here; the class is then returned as is. *)
  if List.exists beaten survivors then
    List.filter (fun r -> not (beaten r)) survivors
  else survivors

let decide_id ~multipath t id =
  match t.cands.(id) with
  | [] -> []
  | head :: _ as l ->
      let same_class r =
        local_pref r = local_pref head
        && as_path_len r = as_path_len head
        && r.attrs.Msg.origin = head.attrs.Msg.origin
      in
      (* The list is sorted, so the class is a prefix of it — and
         within the class the order is already the step 5-6
         tiebreak. A list that is all one class is returned as is. *)
      let rec take = function
        | r :: rest as l when same_class r ->
            let rest' = take rest in
            if rest' == rest then l else r :: rest'
        | _ :: _ | [] -> []
      in
      let survivors = med_filter (take l) in
      if multipath then survivors
      else (match survivors with [] -> [] | winner :: _ -> [ winner ])

(* The decision process's raw input, read from the rows themselves
   rather than from [cands]. *)
let candidates t prefix =
  let id = find_id t prefix in
  if id < 0 then []
  else
    Array.fold_right
      (fun row acc ->
        if id < Array.length row && row.(id) != no_route then row.(id) :: acc
        else acc)
      t.rows []

type refresh_outcome = Unchanged | Changed of route list

let routes_equal a b =
  List.equal
    (fun (x : route) (y : route) ->
      x.peer = y.peer
      && Prefix.equal x.prefix y.prefix
      && Attr_intern.equal x.iattrs y.iattrs)
    a b

let rec retain_all = function
  | [] -> ()
  | (r : route) :: rest ->
      Attr_intern.retain r.iattrs;
      retain_all rest

let rec release_all intern = function
  | [] -> ()
  | (r : route) :: rest ->
      Attr_intern.release intern r.iattrs;
      release_all intern rest

(* Every Loc-RIB route holds its record, so a prefix withdrawn and
   re-announced with equal attributes inside one UPDATE finds the same
   uid and stays [Unchanged]. *)
let refresh_id ~multipath t id =
  let best = decide_id ~multipath t id in
  let old = t.loc.(id) in
  if routes_equal best old then Unchanged
  else begin
    (match (old, best) with
    | [], _ :: _ -> t.loc_size <- t.loc_size + 1
    | _ :: _, [] -> t.loc_size <- t.loc_size - 1
    | [], [] | _ :: _, _ :: _ -> ());
    retain_all best;
    release_all t.intern old;
    t.loc.(id) <- best;
    Changed best
  end

let best_id t id = t.loc.(id)

let best t prefix =
  let id = find_id t prefix in
  if id < 0 then [] else t.loc.(id)

(* Ids of [f]'s non-empty entries, in prefix order. *)
let sorted_ids t f =
  let acc = ref [] in
  for id = t.count - 1 downto 0 do
    if f id then acc := id :: !acc
  done;
  List.sort (compare_ids t) !acc

let loc_rib_ids t =
  sorted_ids t (fun id -> match t.loc.(id) with [] -> false | _ :: _ -> true)

let loc_rib t = List.map (fun id -> (t.prefixes.(id), t.loc.(id))) (loc_rib_ids t)
let loc_rib_size t = t.loc_size

let adj_in t ~peer =
  List.map
    (fun id -> (t.prefixes.(id), (slot t peer id).attrs))
    (sorted_ids t (fun id -> slot t peer id != no_route))
