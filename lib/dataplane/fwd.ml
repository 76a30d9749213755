open Horse_net

(* One hash table per prefix length; lookup probes lengths from /32
   down to /0, so a miss costs at most 33 probes. *)
type t = {
  by_len : (int32, int list) Hashtbl.t array;  (* index: prefix length *)
  mutable count : int;
}

let create () = { by_len = Array.init 33 (fun _ -> Hashtbl.create 8); count = 0 }

let key p = Ipv4.to_int32 (Prefix.network p)

let set_route t p ~next_hops =
  if next_hops = [] then invalid_arg "Fwd.set_route: empty next-hop set";
  let group = List.sort_uniq Int.compare next_hops in
  let table = t.by_len.(Prefix.length p) in
  if not (Hashtbl.mem table (key p)) then t.count <- t.count + 1;
  Hashtbl.replace table (key p) group

let remove_route t p =
  let table = t.by_len.(Prefix.length p) in
  if Hashtbl.mem table (key p) then begin
    Hashtbl.remove table (key p);
    t.count <- t.count - 1
  end

let lookup t addr =
  let a = Ipv4.to_int32 addr in
  let rec probe len =
    if len < 0 then None
    else
      let masked =
        if len = 0 then 0l else Int32.logand a (Int32.shift_left 0xFFFFFFFFl (32 - len))
      in
      match Hashtbl.find_opt t.by_len.(len) masked with
      | Some group -> Some group
      | None -> probe (len - 1)
  in
  probe 32

let lookup_select t addr ~hash =
  match lookup t addr with
  | None -> None
  | Some [] -> None
  | Some group -> Some (List.nth group (hash mod List.length group))

let routes t =
  let all = ref [] in
  Array.iteri
    (fun len table ->
      Hashtbl.iter
        (fun net group ->
          all := (Prefix.make (Ipv4.of_int32 net) len, group) :: !all)
        table)
    t.by_len;
  List.sort (fun (p, _) (q, _) -> Prefix.compare p q) !all

let route_count t = t.count
