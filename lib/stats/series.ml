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

let map t ~f =
  let out = create () in
  for i = 0 to t.n - 1 do
    add out t.times.(i) (f t.vals.(i))
  done;
  out
