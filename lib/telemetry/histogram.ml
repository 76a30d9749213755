type t = {
  lo : float;
  ratio : float;  (* bucket width multiplier *)
  counts : int array;
  mutable under : int;
  mutable over : int;
  mutable total : int;
  mutable sum : float;
}

let create_log ?(buckets_per_decade = 3) ~lo ~hi () =
  if not (lo > 0.0 && hi > lo) then
    invalid_arg "Histogram.create_log: need 0 < lo < hi";
  if buckets_per_decade < 1 then
    invalid_arg "Histogram.create_log: buckets_per_decade < 1";
  let ratio = 10.0 ** (1.0 /. float_of_int buckets_per_decade) in
  let n =
    int_of_float (Float.ceil (log (hi /. lo) /. log ratio)) |> Stdlib.max 1
  in
  { lo; ratio; counts = Array.make n 0; under = 0; over = 0; total = 0; sum = 0.0 }

let bucket_index t v =
  if v < t.lo then -1
  else
    let i = int_of_float (Float.floor (log (v /. t.lo) /. log t.ratio)) in
    if i >= Array.length t.counts then Array.length t.counts else Stdlib.max 0 i

let add t v =
  t.total <- t.total + 1;
  t.sum <- t.sum +. v;
  match bucket_index t v with
  | -1 -> t.under <- t.under + 1
  | i when i = Array.length t.counts -> t.over <- t.over + 1
  | i -> t.counts.(i) <- t.counts.(i) + 1

let add_list t vs = List.iter (add t) vs

let count t = t.total
let underflow t = t.under
let overflow t = t.over
let sum t = t.sum

let bucket_bounds t i =
  (t.lo *. (t.ratio ** float_of_int i), t.lo *. (t.ratio ** float_of_int (i + 1)))

let buckets t =
  Array.to_list
    (Array.mapi
       (fun i c ->
         let lo, hi = bucket_bounds t i in
         (lo, hi, c))
       t.counts)

(* Prometheus-style cumulative view: (upper bound, count of samples <=
   bound) per bucket edge, ending with (+inf, total). The underflow
   bucket contributes to every bound; overflow only to +inf. *)
let cumulative t =
  let acc = ref t.under in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i c ->
           acc := !acc + c;
           (snd (bucket_bounds t i), !acc))
         t.counts)
  in
  rows @ [ (Float.infinity, t.total) ]

let pp fmt t =
  let max_count = Array.fold_left Stdlib.max 1 t.counts in
  let first =
    let rec go i = if i < Array.length t.counts && t.counts.(i) = 0 then go (i + 1) else i in
    go 0
  in
  let last =
    let rec go i = if i >= 0 && t.counts.(i) = 0 then go (i - 1) else i in
    go (Array.length t.counts - 1)
  in
  if t.under > 0 then Format.fprintf fmt "%12s < %-9.3g %6d@." "" t.lo t.under;
  for i = first to last do
    let lo, hi = bucket_bounds t i in
    let bar = 40 * t.counts.(i) / max_count in
    Format.fprintf fmt "%9.3g - %-9.3g %6d %s@." lo hi t.counts.(i)
      (String.make bar '#')
  done;
  if t.over > 0 then
    Format.fprintf fmt "%12s > %-9.3g %6d@." ""
      (t.lo *. (t.ratio ** float_of_int (Array.length t.counts)))
      t.over
