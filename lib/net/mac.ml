type t = int64

let mask48 = 0xFFFF_FFFF_FFFFL
let of_int64 n = Int64.logand n mask48
let to_int64 m = m

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let of_string s =
  let fields = String.split_on_char ':' s in
  let parse_field f =
    match String.length f with
    | 1 -> hex_digit f.[0]
    | 2 -> (
        match (hex_digit f.[0], hex_digit f.[1]) with
        | Some h, Some l -> Some ((h lsl 4) lor l)
        | _, _ -> None)
    | _ -> None
  in
  if List.length fields <> 6 then None
  else
    let rec go acc = function
      | [] -> Some acc
      | f :: rest -> (
          match parse_field f with
          | None -> None
          | Some v -> go (Int64.logor (Int64.shift_left acc 8) (Int64.of_int v)) rest)
    in
    go 0L fields

let of_string_exn s =
  match of_string s with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Mac.of_string_exn: %S" s)

let to_string m =
  let octet i =
    Int64.to_int (Int64.logand (Int64.shift_right_logical m (8 * (5 - i))) 0xFFL)
  in
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (octet 0) (octet 1) (octet 2)
    (octet 3) (octet 4) (octet 5)

let broadcast = mask48
let zero = 0L

let of_index i =
  (* 0x02 first octet: locally administered, unicast. *)
  Int64.logor 0x0200_0000_0000L (Int64.logand (Int64.of_int i) 0xFF_FFFF_FFFFL)

let equal = Int64.equal
