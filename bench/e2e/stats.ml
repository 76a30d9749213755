(* Order statistics over a batch of reps. Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so
   spreads computed here and by external tooling agree. *)

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
}

let sorted values = List.sort Float.compare values |> Array.of_list

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no values"
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

let summarize values =
  let q1, q3 = quartiles values in
  {
    n = List.length values;
    median = median values;
    q1;
    q3;
    min = List.fold_left Float.min Float.infinity values;
    max = List.fold_left Float.max Float.neg_infinity values;
  }

(* Nearest-rank percentile, for per-flow samples inside one rep. *)
let percentile p values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
