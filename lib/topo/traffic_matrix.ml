(* Traffic-matrix generators for million-user workloads: a matrix of
   aggregate demands between sites, produced by the gravity model and
   modulated by a diurnal cycle. *)

type t = { n : int; demand : float array array }

let n t = t.n

let demand t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Traffic_matrix.demand: index out of range";
  t.demand.(src).(dst)

let total t =
  let acc = ref 0.0 in
  Array.iter (Array.iter (fun d -> acc := !acc +. d)) t.demand;
  !acc

let iter t fn =
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      let d = t.demand.(src).(dst) in
      if d > 0.0 then fn ~src ~dst d
    done
  done

(* Zipf's law in its classic form: mass 1/rank. *)
let exponent = 1.0

let zipf_masses n =
  if n < 1 then invalid_arg "Traffic_matrix.zipf_masses: n < 1";
  Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) exponent)

let gravity ~total ~masses =
  let n = Array.length masses in
  if n < 2 then invalid_arg "Traffic_matrix.gravity: need >= 2 masses";
  if total <= 0.0 then invalid_arg "Traffic_matrix.gravity: total <= 0";
  Array.iter
    (fun m ->
      if m < 0.0 then invalid_arg "Traffic_matrix.gravity: negative mass")
    masses;
  (* t_ij proportional to m_i * m_j with a zero diagonal, renormalised
     so the off-diagonal demands sum to [total]. *)
  let demand = Array.make_matrix n n 0.0 in
  let weight = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        demand.(i).(j) <- masses.(i) *. masses.(j);
        weight := !weight +. demand.(i).(j)
      end
    done
  done;
  if !weight <= 0.0 then
    invalid_arg "Traffic_matrix.gravity: all off-diagonal masses are zero";
  let scale = total /. !weight in
  Array.iter
    (fun row ->
      Array.iteri (fun j d -> row.(j) <- d *. scale) row)
    demand;
  { n; demand }

let two_pi = 8.0 *. Float.atan 1.0

(* The night-time demand, as a fraction of the peak. *)
let trough = 0.2

let diurnal_factor ~period_s ~phase t_s =
  if period_s <= 0.0 then
    invalid_arg "Traffic_matrix.diurnal_factor: period <= 0";
  let cycle = (t_s /. period_s) -. phase in
  (* Peaks at whole cycles, bottoms out at [trough] half a cycle
     later. *)
  trough +. ((1.0 -. trough) *. 0.5 *. (1.0 +. Float.cos (two_pi *. cycle)))
