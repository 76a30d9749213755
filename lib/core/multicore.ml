open Horse_engine
open Horse_topo
module Registry = Horse_telemetry.Registry
module Plan = Horse_faults.Plan
module Injector = Horse_faults.Injector

(* The Routed_fabric experiment partitioned over shards and driven in
   lockstep by a Barrier. The shard structure — which nodes live where,
   which sessions cross the cut — is fixed by the Partition alone; how
   many domains execute the shards is chosen at run time and changes
   nothing observable. That is the whole determinism argument, and the
   differential tests hold the implementation to it byte-for-byte.
   This module only creates the shards, splits the fault plan, runs
   the barrier and merges the per-shard results; the fabric itself is
   Routed_fabric's. *)

(* Split a plan into per-shard plans. Every event keeps its timestamp
   and its site-keyed RNG streams (the plan seed is copied into every
   slice, and Injector derives streams per site label), so the union
   of the per-shard injections equals the unsharded plan's — only
   attributed to the shard that owns each site. Partition/Heal are
   expanded here, statically, against the full session list, because
   no single shard can see the whole cut. *)
let split_plan fabric (partition : Partition.t) (plan : Plan.t) =
  let n = Partition.n_shards partition in
  let events = Array.make n [] in
  let generators = Array.make n [] in
  (* (shard, a, b) per session, each shard's in creation order. *)
  let sessions =
    List.concat
      (List.init n (fun s ->
           List.map
             (fun (a, b) -> (s, a, b))
             ((Routed_fabric.fault_target ~shard:s fabric).Injector.links ())))
  in
  let site_owner = Hashtbl.create 64 in
  List.iter
    (fun (s, a, b) ->
      Hashtbl.replace site_owner (a, b) s;
      Hashtbl.replace site_owner (b, a) s)
    sessions;
  (* Unknown sites and nodes go to shard 0, which records them as
     skipped, exactly as the unsharded injector would. *)
  let shard_of_site (site : Plan.site) =
    Option.value (Hashtbl.find_opt site_owner (site.Plan.a, site.Plan.b)) ~default:0
  in
  let shard_of_node name =
    match Topology.node_by_name (Routed_fabric.topo fabric) name with
    | Some n -> partition.Partition.owner n.Topology.id
    | None -> 0
  in
  let add_event s ev = events.(s) <- ev :: events.(s) in
  let expand at group action =
    let in_group name = List.mem name group in
    List.iter
      (fun (s, a, b) ->
        if in_group a <> in_group b then add_event s { Plan.at; action = action { Plan.a; b } })
      sessions
  in
  List.iter
    (fun (ev : Plan.event) ->
      match ev.Plan.action with
      | Plan.Link_down s | Plan.Link_up s | Plan.Session_reset s
      | Plan.Impair (s, _) | Plan.Clear_impair s ->
          add_event (shard_of_site s) ev
      | Plan.Node_crash name | Plan.Node_restart name ->
          add_event (shard_of_node name) ev
      | Plan.Partition group ->
          expand ev.Plan.at group (fun site -> Plan.Link_down site)
      | Plan.Heal group -> expand ev.Plan.at group (fun site -> Plan.Link_up site))
    plan.Plan.events;
  List.iter
    (fun (g : Plan.generator) ->
      let s = shard_of_site g.Plan.g_site in
      generators.(s) <- g :: generators.(s))
    plan.Plan.generators;
  Array.init n (fun s ->
      {
        Plan.seed = plan.Plan.seed;
        events = List.rev events.(s);
        generators = List.rev generators.(s);
      })

(* One injector per shard, armed on its own scheduler against the
   shard's slice of the plan. *)
let arm_faults fabric partition shards plan =
  let slices = split_plan fabric partition plan in
  Array.mapi
    (fun s shard ->
      let target =
        {
          (Routed_fabric.fault_target ~shard:s fabric) with
          Injector.describe = "multicore/" ^ Shard.name shard;
        }
      in
      Injector.arm (Shard.sched shard) ~target slices.(s))
    shards

(* One digest over the per-shard causal hashes, in shard order. Each
   shard's graph is deterministic on its own; concatenating in
   partition order makes the combined hash deterministic too, without
   pretending there is a global creation order across shards. *)
let causal_hash shards =
  let buf = Buffer.create 256 in
  Array.iter
    (fun shard ->
      (match Sched.causal (Shard.sched shard) with
      | Some g -> Buffer.add_string buf (Causal.hash g)
      | None -> Buffer.add_string buf "-");
      Buffer.add_char buf '\n')
    shards;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Wall time never enters: (at_us, from, to, reason) per transition,
   per shard — the replay-comparable timeline. *)
let mode_timelines shards =
  Array.map
    (fun shard ->
      List.map
        (fun (tr : Sched.transition) ->
          ( Time.to_us tr.Sched.at,
            Sched.mode_to_string tr.Sched.from_mode,
            Sched.mode_to_string tr.Sched.to_mode,
            tr.Sched.reason ))
        (Sched.snapshot (Shard.sched shard)).Sched.transitions)
    shards

(* --- the canned scenario --------------------------------------------- *)

type result = {
  pods : int;
  domains : int;
  shards : int;
  partition_name : string;
  setup_wall_s : float;
  run_wall_s : float;
  epochs : int;
  jumps : int;
  cross_messages : int;
  converged_at : Time.t option;
  fib_fingerprint : string;
  causal_hash : string;
  timelines : (int * string * string * string) list array;
  fault_trace : string list array;
  faults_injected : int;
  faults_skipped : int;
  control_messages : int;
  control_bytes : int;
  fib_writes : int;
  sessions_up : int;
  sessions_total : int;
  registry : Registry.t;
}

(* The BGP fat-tree convergence experiment of Scenario.run_fat_tree_te
   (Bgp_ecmp), sharded. No fluid data plane in the sharded runner —
   the multicore engine targets control-plane scale; the differential
   tests pin its results to the sequential run. *)
let run_fat_tree ?(seed = 42) ?sched_config ?shards ?(domains = 1) ?faults
    ~pods ~duration () =
  let (partition, shards, cms, barrier, fabric, latches, injectors), setup_wall_s =
    Wall.time (fun () ->
        let ft = Fat_tree.build ~k:pods () in
        let partition = Partition.fat_tree_pods ?shards ft in
        Partition.validate partition ft.Fat_tree.topo;
        let shards =
          Array.init (Partition.n_shards partition) (fun i ->
              Shard.create ?config:sched_config ~index:i
                ~name:(Partition.shard_name partition i)
                ~seed ())
        in
        let cms =
          Array.map
            (fun shard ->
              let trace = Trace.create () in
              Trace.bind_registry trace (Shard.registry shard);
              Connection_manager.create (Shard.sched shard) trace)
            shards
        in
        let barrier = Barrier.create shards in
        let fabric =
          Routed_fabric.build_sharded ~cms ~barrier ~owner:partition.Partition.owner
            ~originate:(Fat_tree.edge_subnets ft) ft.Fat_tree.topo
        in
        (* Each shard boots its speakers at t=0 and latches the instant
           its own FIBs complete. *)
        let latches = Array.make (Array.length shards) None in
        Array.iteri
          (fun s shard ->
            let sched = Shard.sched shard in
            ignore
              (Sched.schedule_at sched Time.zero (fun () ->
                   Routed_fabric.start ~shard:s fabric));
            Routed_fabric.when_converged ~shard:s fabric (fun () ->
                latches.(s) <- Some (Sched.now sched)))
          shards;
        let injectors = Option.map (arm_faults fabric partition shards) faults in
        (partition, shards, cms, barrier, fabric, latches, injectors))
  in
  let (), run_wall_s =
    Wall.time (fun () -> Barrier.run ~domains ~until:duration barrier)
  in
  let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs in
  let sum_faults f = match injectors with Some a -> sum f a | None -> 0 in
  let registry = Registry.create () in
  Array.iter (fun shard -> Registry.merge_into registry (Shard.registry shard)) shards;
  {
    pods;
    domains;
    shards = Array.length shards;
    partition_name = partition.Partition.name;
    setup_wall_s;
    run_wall_s;
    epochs = Barrier.epochs barrier;
    jumps = Barrier.jumps barrier;
    cross_messages = Barrier.cross_messages barrier;
    (* The fabric converged once the last shard latched. *)
    converged_at =
      Array.fold_left
        (fun acc latch ->
          match (acc, latch) with
          | Some a, Some b -> Some (Time.max a b)
          | _, None | None, _ -> None)
        (Some Time.zero) latches;
    fib_fingerprint = Routed_fabric.fib_fingerprint fabric;
    causal_hash = causal_hash shards;
    timelines = mode_timelines shards;
    fault_trace =
      (match injectors with
      | Some a -> Array.map Injector.trace_labels a
      | None -> Array.map (fun _ -> []) shards);
    faults_injected = sum_faults Injector.injected;
    faults_skipped = sum_faults Injector.skipped;
    control_messages = sum Connection_manager.messages_observed cms;
    control_bytes = sum Connection_manager.bytes_observed cms;
    fib_writes = Routed_fabric.fib_routes_installed fabric;
    sessions_up = Routed_fabric.sessions_established fabric;
    sessions_total = Routed_fabric.sessions_expected fabric;
    registry;
  }
