type t = int32

let of_int32 n = n
let to_int32 a = a

let of_octets a b c d =
  let check o =
    if o < 0 || o > 255 then
      invalid_arg (Printf.sprintf "Ipv4.of_octets: octet %d out of range" o)
  in
  check a;
  check b;
  check c;
  check d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let to_octets a =
  let n = Int32.to_int (Int32.logand a 0xFFFFFFl) in
  let hi = Int32.to_int (Int32.shift_right_logical a 24) land 0xFF in
  (hi, (n lsr 16) land 0xFF, (n lsr 8) land 0xFF, n land 0xFF)

(* Hand-rolled parser: [Scanf "%d.%d.%d.%d"] accepts leading signs and
   whitespace, which are not valid in dotted-quad notation. *)
let of_string s =
  let len = String.length s in
  let rec octet i acc ndigits =
    if i >= len then (i, acc, ndigits)
    else
      match s.[i] with
      | '0' .. '9' when ndigits < 3 && acc <= 25 ->
          octet (i + 1) ((acc * 10) + Char.code s.[i] - Char.code '0')
            (ndigits + 1)
      | _ -> (i, acc, ndigits)
  in
  let rec fields i collected =
    let j, v, nd = octet i 0 0 in
    if nd = 0 || v > 255 then None
    else
      let collected = v :: collected in
      if j = len then
        if List.length collected = 4 then
          match collected with
          | [ d; c; b; a ] -> Some (of_octets a b c d)
          | _ -> None
        else None
      else if s.[j] = '.' && List.length collected < 4 then
        fields (j + 1) collected
      else None
  in
  fields 0 []

let of_string_exn s =
  match of_string s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string_exn: %S" s)

let to_string a =
  let x, y, z, w = to_octets a in
  Printf.sprintf "%d.%d.%d.%d" x y z w

let any = 0l
let add a n = Int32.add a (Int32.of_int n)

let compare a b =
  (* Unsigned comparison via bias. *)
  Int32.unsigned_compare a b

let equal (a : t) (b : t) = Int32.equal a b

let hash a =
  (* splitmix64 finalizer over the 32-bit value. *)
  let z = Int64.of_int32 a in
  let z = Int64.logand z 0xFFFFFFFFL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int z land max_int

let pp fmt a = Format.pp_print_string fmt (to_string a)
