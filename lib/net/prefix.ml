type t = { net : Ipv4.t; len : int }

let mask_of_len len =
  if len = 0 then 0l
  else Int32.shift_left 0xFFFFFFFFl (32 - len)

let make addr len =
  if len < 0 || len > 32 then
    invalid_arg (Printf.sprintf "Prefix.make: bad length %d" len);
  { net = Ipv4.of_int32 (Int32.logand (Ipv4.to_int32 addr) (mask_of_len len)); len }

let of_string s =
  match String.index_opt s '/' with
  | None -> Option.map (fun a -> make a 32) (Ipv4.of_string s)
  | Some i ->
      let addr = String.sub s 0 i in
      let len_s = String.sub s (i + 1) (String.length s - i - 1) in
      let len_ok =
        String.length len_s > 0
        && String.length len_s <= 2
        && String.for_all (function '0' .. '9' -> true | _ -> false) len_s
      in
      if not len_ok then None
      else
        let len = int_of_string len_s in
        if len > 32 then None
        else Option.map (fun a -> make a len) (Ipv4.of_string addr)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.net) p.len
(* The address is masked to 32 bits: [Int32.to_int] sign-extends
   addresses from 128.0.0.0 up. *)
let to_bits p =
  ((Int32.to_int (Ipv4.to_int32 p.net) land 0xFFFF_FFFF) lsl 6) lor p.len

let of_bits b =
  let p =
    if b < 0 || b lsr 38 <> 0 || b land 63 > 32 then None
    else Some (make (Ipv4.of_int32 (Int32.of_int (b lsr 6))) (b land 63))
  in
  match p with
  | Some p when to_bits p = b -> p
  | Some _ | None -> invalid_arg (Printf.sprintf "Prefix.of_bits: %#x" b)

let network p = p.net
let length p = p.len
let netmask p = Ipv4.of_int32 (mask_of_len p.len)

let size p = 1 lsl (32 - p.len)

let broadcast p = Ipv4.add p.net (size p - 1)

let mem a p =
  Int32.equal
    (Int32.logand (Ipv4.to_int32 a) (mask_of_len p.len))
    (Ipv4.to_int32 p.net)

let subset p q = q.len <= p.len && mem p.net q
let overlaps p q = subset p q || subset q p

let nth p i =
  if i < 0 || i >= size p then None else Some (Ipv4.add p.net i)

let split p =
  if p.len = 32 then None
  else
    let len = p.len + 1 in
    Some (make p.net len, make (Ipv4.add p.net (1 lsl (32 - len))) len)

let any = { net = Ipv4.any; len = 0 }
let host a = make a 32

let compare p q =
  match Ipv4.compare p.net q.net with 0 -> Int.compare p.len q.len | c -> c

let equal p q = Ipv4.equal p.net q.net && p.len = q.len
let pp fmt p = Format.pp_print_string fmt (to_string p)
