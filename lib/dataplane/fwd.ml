open Horse_net
module Int_tbl = Hashtbl.Make (Int)

(* One table per prefix length, keyed on the unboxed network address.
   A length gets its table on its first route; bit [len] of [present]
   is set while that table holds a route, so a lookup probes only the
   lengths in use, longest first. *)
type t = {
  by_len : int list Int_tbl.t array;  (* index: prefix length *)
  mutable present : int;
  mutable count : int;
}

(* Stands in for the lengths that never held a route; never written. *)
let unused : int list Int_tbl.t = Int_tbl.create 1

let create () = { by_len = Array.make 33 unused; present = 0; count = 0 }

let addr a = Int32.to_int (Ipv4.to_int32 a) land 0xFFFF_FFFF
let key p = addr (Prefix.network p)
let mask len = (0xFFFF_FFFF lsl (32 - len)) land 0xFFFF_FFFF

let set_route t p ~next_hops =
  if next_hops = [] then invalid_arg "Fwd.set_route: empty next-hop set";
  let group = List.sort_uniq Int.compare next_hops in
  let len = Prefix.length p in
  if t.by_len.(len) == unused then t.by_len.(len) <- Int_tbl.create 8;
  let table = t.by_len.(len) in
  if not (Int_tbl.mem table (key p)) then begin
    t.count <- t.count + 1;
    t.present <- t.present lor (1 lsl len)
  end;
  Int_tbl.replace table (key p) group

let remove_route t p =
  let len = Prefix.length p in
  let table = t.by_len.(len) in
  if Int_tbl.mem table (key p) then begin
    Int_tbl.remove table (key p);
    t.count <- t.count - 1;
    if Int_tbl.length table = 0 then t.present <- t.present land lnot (1 lsl len)
  end

(* The ECMP group of the longest match, [[]] on a miss (an installed
   group is never empty). *)
let find_group t a =
  let rec probe len =
    if len < 0 then []
    else if t.present land (1 lsl len) = 0 then probe (len - 1)
    else
      match Int_tbl.find t.by_len.(len) (a land mask len) with
      | group -> group
      | exception Not_found -> probe (len - 1)
  in
  probe 32

let lookup t a =
  match find_group t (addr a) with [] -> None | group -> Some group

let lookup_select t a ~hash =
  match find_group t (addr a) with
  | [] -> None
  | group -> Some (List.nth group (hash mod List.length group))

let lengths t =
  List.filter (fun len -> t.present land (1 lsl len) <> 0) (List.init 33 (( - ) 32))

let routes t =
  let all = ref [] in
  Array.iteri
    (fun len table ->
      Int_tbl.iter
        (fun net group ->
          all :=
            (Prefix.make (Ipv4.of_int32 (Int32.of_int net)) len, group) :: !all)
        table)
    t.by_len;
  List.sort (fun (p, _) (q, _) -> Prefix.compare p q) !all

let route_count t = t.count
