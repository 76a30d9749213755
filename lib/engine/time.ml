type t = int

let zero = 0
let of_us n = n
let of_ms n = n * 1_000
let of_sec s = int_of_float (s *. 1e6)
let to_us t = t
let to_ms t = float_of_int t /. 1e3
let to_sec t = float_of_int t /. 1e6
let add = Int.add
let sub = Int.sub
let mul t n = t * n
let div t n = t / n
let min = Int.min
let max = Int.max
let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) b = a < b
let ( <= ) (a : t) b = a <= b
let ( > ) (a : t) b = a > b
let ( >= ) (a : t) b = a >= b

let pp fmt us =
  let mag = abs us in
  if us mod 1_000_000 = 0 then Format.fprintf fmt "%ds" (us / 1_000_000)
  else if mag >= 1_000_000 then Format.fprintf fmt "%.3fs" (to_sec us)
  else if us mod 1_000 = 0 then Format.fprintf fmt "%dms" (us / 1_000)
  else if mag >= 1_000 then Format.fprintf fmt "%.3fms" (to_ms us)
  else Format.fprintf fmt "%dus" us
