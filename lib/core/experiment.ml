open Horse_engine
open Horse_topo
open Horse_dataplane

type t = {
  sched : Sched.t;
  exp_topo : Topology.t;
  exp_cm : Connection_manager.t;
  exp_fluid : Fluid.t;
  exp_trace : Trace.t;
  exp_rng : Rng.t;
}

let create ?config ?(seed = 42) topo =
  let sched = Sched.create ?config () in
  let trace = Trace.create () in
  Trace.bind_registry trace (Sched.registry sched);
  {
    sched;
    exp_topo = topo;
    exp_cm = Connection_manager.create sched trace;
    exp_fluid = Fluid.create sched topo;
    exp_trace = trace;
    exp_rng = Rng.create seed;
  }

let scheduler t = t.sched
let registry t = Sched.registry t.sched
let topology t = t.exp_topo
let cm t = t.exp_cm
let fluid t = t.exp_fluid
let trace t = t.exp_trace

let at t time f = ignore (Sched.schedule_at t.sched time (fun () -> f ()))

let run ?until t = Sched.with_span t.sched ~name:"run" (fun () -> Sched.run ?until t.sched)

let permutation_pairs t hosts =
  let n = Array.length hosts in
  let dsts = Rng.derangement t.exp_rng n in
  Array.mapi (fun i h -> (h, hosts.(dsts.(i)))) hosts
