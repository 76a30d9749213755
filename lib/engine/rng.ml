type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* FNV-1a over the key bytes, folded into the parent's current state
   without advancing it: the derived stream depends only on (parent
   state, key), so sites keyed by distinct names get streams that do
   not shift when other sites are added or removed. *)
let split_key t key =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    key;
  { state = mix (Int64.add (mix t.state) (Int64.mul !h golden)) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask_needed = bound - 1 in
  let rec bits_for n acc = if n = 0 then acc else bits_for (n lsr 1) (acc + 1) in
  let bits = bits_for mask_needed 0 in
  let mask = (1 lsl bits) - 1 in
  let rec draw () =
    let v = Int64.to_int (int64 t) land mask in
    if v < bound then v else draw ()
  in
  if bound = 1 then 0 else draw ()

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. v /. 9007199254740992.0 (* 2^53 *)


(* In-place Fisher–Yates shuffle. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let derangement t n =
  if n <= 1 then Array.init n (fun i -> i)
  else
    let rec try_one () =
      let a = permutation t n in
      let fixed = ref false in
      Array.iteri (fun i v -> if i = v then fixed := true) a;
      if !fixed then try_one () else a
    in
    try_one ()
