open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane

type size_dist =
  | Fixed of float
  | Uniform of float * float
  | Pareto of { scale : float; shape : float }
  | Mix of (float * size_dist) list

let rec sample_size rng = function
  | Fixed s -> s
  | Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)
  | Pareto { scale; shape } ->
      let u = Float.max 1e-12 (Rng.float rng 1.0) in
      scale /. (u ** (1.0 /. shape))
  | Mix weighted ->
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
      let pick = Rng.float rng total in
      let rec go acc = function
        | [] -> Fixed 0.0 (* unreachable for non-empty mixes *)
        | (w, d) :: rest -> if pick < acc +. w then d else go (acc +. w) rest
      in
      sample_size rng (go 0.0 weighted)

(* Short queries, medium updates, heavy background — the classic
   web-search shape. *)
let websearch =
  Mix
    [
      (0.5, Uniform (8e3, 80e3)) (* 1-10 KB queries *);
      (0.3, Uniform (80e3, 8e6)) (* 10 KB - 1 MB *);
      (0.15, Uniform (8e6, 80e6)) (* 1-10 MB *);
      (0.05, Pareto { scale = 80e6; shape = 1.5 }) (* 10 MB+ tail *);
    ]

type record = {
  key : Flow_key.t;
  size_bits : float;
  started : Time.t;
  completed : Time.t;
  fct : Time.t;
}

(* Every flow's peak rate (1 Gbps), and the seed of the generator's
   own RNG, independent of the experiment's. *)
let demand = 1e9
let seed = 4242

type t = {
  mutable n_arrivals : int;
  mutable n_unroutable : int;
  mutable rev_records : record list;
  mutable n_completed : int;
}

let poisson ~exp ~hosts ~route ~arrival_rate ~sizes ~until () =
  if arrival_rate <= 0.0 then invalid_arg "Traffic.poisson: rate <= 0";
  if Array.length hosts < 2 then invalid_arg "Traffic.poisson: need >= 2 hosts";
  let t =
    {
      n_arrivals = 0;
      n_unroutable = 0;
      rev_records = [];
      n_completed = 0;
    }
  in
  let rng = Rng.create seed in
  let sched = Experiment.scheduler exp in
  let fluid = Experiment.fluid exp in
  let next_gap () =
    let u = Float.max 1e-12 (Rng.float rng 1.0) in
    Time.of_sec (-.log u /. arrival_rate)
  in
  let launch () =
    let n = Array.length hosts in
    let si = Rng.int rng n in
    let di = (si + 1 + Rng.int rng (n - 1)) mod n in
    match (hosts.(si).Topology.ip, hosts.(di).Topology.ip) with
    | Some src, Some dst ->
        let key =
          Flow_key.make ~src ~dst
            ~src_port:(1024 + (t.n_arrivals mod 60000))
            ~dst_port:(2048 + (t.n_arrivals / 60000 mod 60000))
            ()
        in
        t.n_arrivals <- t.n_arrivals + 1;
        let size_bits = Float.max 1.0 (sample_size rng sizes) in
        (match route key with
        | Error _ -> t.n_unroutable <- t.n_unroutable + 1
        | Ok path ->
            ignore
              (Fluid.start_finite_flow ~demand fluid ~key ~path
                 ~size_bits
                 ~on_complete:(fun (f : Flow.t) ->
                   let completed =
                     Option.value f.Flow.stopped_at ~default:(Sched.now sched)
                   in
                   t.n_completed <- t.n_completed + 1;
                   t.rev_records <-
                     {
                       key;
                       size_bits;
                       started = f.Flow.started;
                       completed;
                       fct = Time.sub completed f.Flow.started;
                     }
                     :: t.rev_records)))
    | None, _ | _, None -> t.n_unroutable <- t.n_unroutable + 1
  in
  let rec arm at =
    if Time.(at <= until) then
      ignore
        (Sched.schedule_at sched at (fun () ->
             launch ();
             arm (Time.add (Sched.now sched) (next_gap ()))))
  in
  arm (Time.add (Sched.now sched) (next_gap ()));
  t

let arrivals t = t.n_arrivals
let completions t = t.n_completed
let unroutable t = t.n_unroutable
let in_flight t = t.n_arrivals - t.n_unroutable - t.n_completed
let records t = List.rev t.rev_records
let fct_seconds t = List.rev_map (fun r -> Time.to_sec r.fct) t.rev_records

let slowdowns t =
  List.rev_map
    (fun r -> Time.to_sec r.fct /. (r.size_bits /. demand))
    t.rev_records
