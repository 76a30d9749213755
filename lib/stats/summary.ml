type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let of_list xs =
  match xs with
  | [] -> { count = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0 }
  | first :: _ ->
      let count = List.length xs in
      let sum = List.fold_left ( +. ) 0.0 xs in
      let mean = sum /. float_of_int count in
      let sq = List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs in
      let stddev = sqrt (sq /. float_of_int count) in
      let mn = List.fold_left Float.min first xs in
      let mx = List.fold_left Float.max first xs in
      { count; mean; stddev; min = mn; max = mx }

let percentile xs p =
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p outside [0,100]";
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then a.(lo)
      else
        let frac = rank -. float_of_int lo in
        (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
