open Horse_engine

type t = {
  mutable times : Time.t array;
  mutable vals : float array;
  mutable n : int;
}

let create () =
  { times = Array.make 64 Time.zero; vals = Array.make 64 0.0; n = 0 }


let add t at v =
  if t.n > 0 && Time.(at < t.times.(t.n - 1)) then
    invalid_arg "Series.add: non-monotonic timestamp";
  if t.n = Array.length t.times then begin
    let times = Array.make (2 * t.n) Time.zero in
    let vals = Array.make (2 * t.n) 0.0 in
    Array.blit t.times 0 times 0 t.n;
    Array.blit t.vals 0 vals 0 t.n;
    t.times <- times;
    t.vals <- vals
  end;
  t.times.(t.n) <- at;
  t.vals.(t.n) <- v;
  t.n <- t.n + 1

let length t = t.n
let is_empty t = t.n = 0
let to_list t = List.init t.n (fun i -> (t.times.(i), t.vals.(i)))
let last t = if t.n = 0 then None else Some (t.times.(t.n - 1), t.vals.(t.n - 1))
let values t = List.init t.n (fun i -> t.vals.(i))

let mean t =
  if t.n = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.n - 1 do
      sum := !sum +. t.vals.(i)
    done;
    !sum /. float_of_int t.n
  end

let max_value t =
  let m = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.vals.(i) > !m then m := t.vals.(i)
  done;
  !m

let integrate t =
  let acc = ref 0.0 in
  for i = 0 to t.n - 2 do
    let dt = Time.to_sec (Time.sub t.times.(i + 1) t.times.(i)) in
    acc := !acc +. (t.vals.(i) *. dt)
  done;
  !acc

let between t start stop =
  let out = create () in
  for i = 0 to t.n - 1 do
    if Time.(t.times.(i) >= start) && Time.(t.times.(i) <= stop) then
      add out t.times.(i) t.vals.(i)
  done;
  out

let map t ~f =
  let out = create () in
  for i = 0 to t.n - 1 do
    add out t.times.(i) (f t.vals.(i))
  done;
  out

let merge_sum series =
  match series with
  | [] -> create ()
  | first :: _ ->
      let out = create () in
      let n = first.n in
      List.iter
        (fun s ->
          if s.n <> n then invalid_arg "Series.merge_sum: length mismatch")
        series;
      for i = 0 to n - 1 do
        let at = first.times.(i) in
        let total =
          List.fold_left
            (fun acc s ->
              if not (Time.equal s.times.(i) at) then
                invalid_arg "Series.merge_sum: timestamp mismatch";
              acc +. s.vals.(i))
            0.0 series
        in
        add out at total
      done;
      out
