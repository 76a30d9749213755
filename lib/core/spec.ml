open Horse_engine

type topology =
  | Fat_tree of int
  | Linear of { routers : int; prefixes : int }
  | Ring of int
  | Gnp of int
  | Abilene

type control = Bgp_ecmp | Ospf | Sdn_ecmp | Hedera_gff | Hedera_annealing | P4_ecmp
type traffic = No_traffic | Permutation

type t = {
  topology : topology;
  control : control;
  traffic : traffic;
  faults : Horse_faults.Plan.t option;
  duration : Time.t;
  seed : int;
  config : Sched.config;
  hold_time : Time.t;
  sample_every : Time.t;
}

let make ?(traffic = Permutation) ?faults ?(seed = 42)
    ?(config = Sched.default_config) ?(hold_time = Time.of_sec 9.0)
    ?(sample_every = Time.of_ms 500) ~duration topology control =
  { topology; control; traffic; faults; duration; seed; config; hold_time; sample_every }
