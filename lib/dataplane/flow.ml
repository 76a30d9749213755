open Horse_net
open Horse_engine

type meter = { mutable rate : float; mutable delivered_bits : float }

type t = {
  id : int;
  key : Flow_key.t;
  demand : float;
  users : int;
  started : Time.t;
  mutable path : Horse_topo.Spf.path;
  mutable dst : int;
  meter : meter;
  mutable last_integration : Time.t;
  mutable active : bool;
  mutable stopped_at : Time.t option;
}

let link_ids t = List.map (fun l -> l.Horse_topo.Topology.link_id) t.path
