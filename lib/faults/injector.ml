open Horse_engine
module Json = Horse_telemetry.Json
module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge

type target = {
  describe : string;
  link_down : a:string -> b:string -> bool;
  link_up : a:string -> b:string -> bool;
  node_crash : string -> bool;
  node_restart : string -> bool;
  session_reset : a:string -> b:string -> bool;
  impair :
    a:string ->
    b:string ->
    rng:Rng.t ->
    Horse_emulation.Channel.impairment option -> bool;
  links : unit -> (string * string) list;
  converged : unit -> bool;
}

type record = {
  at : Time.t;
  label : string;
  applied : bool;
  cause : Causal.id;
}

type t = {
  sched : Sched.t;
  target : target;
  seed : int;
  mutable rev_trace : record list;
  mutable outstanding : (string * Time.t) list;  (* reversed *)
  mutable rev_recon : (string * Time.t * Time.t) list;
  mutable n_injected : int;
  mutable n_skipped : int;
  mutable last_at : Time.t option;
  (* Impairment streams are per site and persistent, so re-impairing a
     site continues its stream instead of restarting it. *)
  impair_rngs : (string, Rng.t) Hashtbl.t;
  m_injected : string -> Counter.t;
  m_skipped : Counter.t;
  g_outstanding : Gauge.t;
  h_recon : Horse_telemetry.Histogram.t;
}

let injected t = t.n_injected
let skipped t = t.n_skipped
let pending t = List.length t.outstanding
let trace t = List.rev t.rev_trace

let trace_labels t =
  List.rev_map
    (fun r ->
      Printf.sprintf "%d %s%s" (Time.to_us r.at) r.label
        (if r.applied then "" else " (skipped)"))
    t.rev_trace

let reconvergence t = List.rev t.rev_recon

(* --- applying one action -------------------------------------------- *)

let site_rng t site =
  let key = Plan.site_label site in
  match Hashtbl.find_opt t.impair_rngs key with
  | Some rng -> rng
  | None ->
      let rng = Rng.split_key (Rng.create t.seed) ("impair:" ^ key) in
      Hashtbl.add t.impair_rngs key rng;
      rng

(* A partition cuts every link with exactly one endpoint inside the
   group; healing restores the same cut set. *)
let crossing_links t group =
  let in_group n = List.mem n group in
  List.filter
    (fun (a, b) -> in_group a <> in_group b)
    (t.target.links ())

let apply t (action : Plan.action) =
  let tgt = t.target in
  match action with
  | Plan.Link_down { a; b } -> tgt.link_down ~a ~b
  | Plan.Link_up { a; b } -> tgt.link_up ~a ~b
  | Plan.Node_crash n -> tgt.node_crash n
  | Plan.Node_restart n -> tgt.node_restart n
  | Plan.Session_reset { a; b } -> tgt.session_reset ~a ~b
  | Plan.Impair (site, imp) ->
      tgt.impair ~a:site.Plan.a ~b:site.Plan.b ~rng:(site_rng t site)
        (Some imp)
  | Plan.Clear_impair site ->
      tgt.impair ~a:site.Plan.a ~b:site.Plan.b ~rng:(site_rng t site) None
  | Plan.Partition group ->
      List.fold_left
        (fun any (a, b) -> tgt.link_down ~a ~b || any)
        false (crossing_links t group)
  | Plan.Heal group ->
      List.fold_left
        (fun any (a, b) -> tgt.link_up ~a ~b || any)
        false (crossing_links t group)

(* One text kind per fault action ("fault:link_down", ...); the node's
   detail is the action's label, verbatim. *)
let fault_kinds : (string, Causal.kind) Hashtbl.t = Hashtbl.create 16

let fault_kind kind =
  match Hashtbl.find_opt fault_kinds kind with
  | Some k -> k
  | None ->
      let k = Causal.text_kind ("fault:" ^ kind) in
      Hashtbl.add fault_kinds kind k;
      k

let fire t (action : Plan.action) =
  let kind = Plan.action_kind action in
  let label = Plan.action_label action in
  let at = Sched.now t.sched in
  (* The fault node roots the provenance chain of everything its
     application triggers — session teardowns, withdrawals, FIB
     churn. Protected: consecutive faults are siblings. *)
  let cause = ref Causal.none in
  let applied =
    Sched.protect_cause t.sched (fun () ->
        cause :=
          Sched.cause_point t.sched (fault_kind kind) (Sched.text t.sched label);
        Sched.with_span t.sched
          ~name:("fault:" ^ kind)
          (fun () -> apply t action))
  in
  t.rev_trace <- { at; label; applied; cause = !cause } :: t.rev_trace;
  if applied then begin
    t.n_injected <- t.n_injected + 1;
    t.last_at <- Some at;
    Counter.incr (t.m_injected kind);
    t.outstanding <- (label, at) :: t.outstanding;
    Gauge.set t.g_outstanding (float_of_int (List.length t.outstanding))
  end
  else begin
    t.n_skipped <- t.n_skipped + 1;
    Counter.incr t.m_skipped
  end

(* --- reconvergence sampling ----------------------------------------- *)

let check_converged t =
  if t.outstanding <> [] && t.target.converged () then begin
    let now = Sched.now t.sched in
    List.iter
      (fun (label, at) ->
        let d = Time.to_sec (Time.sub now at) in
        Horse_telemetry.Histogram.add t.h_recon d;
        t.rev_recon <- (label, at, now) :: t.rev_recon)
      (List.rev t.outstanding);
    t.outstanding <- [];
    Gauge.set t.g_outstanding 0.0
  end

(* --- generator expansion -------------------------------------------- *)

(* Expansion happens at arm time from per-site keyed streams: the
   sequence for site X is a function of (plan seed, X) only. *)
let expand_generator seed (g : Plan.generator) =
  let rng = Rng.split_key (Rng.create seed) ("flap:" ^ Plan.site_label g.Plan.g_site) in
  let events = ref [] in
  let flap at =
    events := { Plan.at; action = Plan.Link_down g.Plan.g_site } :: !events;
    events :=
      { Plan.at = Time.add at g.Plan.g_down_for;
        action = Plan.Link_up g.Plan.g_site }
      :: !events
  in
  (match g.Plan.g_flavor with
  | Plan.Periodic period ->
      let at = ref g.Plan.g_start in
      while Time.(!at < g.Plan.g_stop) do
        flap !at;
        at := Time.add !at period
      done
  | Plan.Poisson rate ->
      let gap () =
        let u = Rng.float rng 1.0 in
        Time.of_sec (-.log (1.0 -. u) /. rate)
      in
      let at = ref (Time.add g.Plan.g_start (gap ())) in
      while Time.(!at < g.Plan.g_stop) do
        flap !at;
        at := Time.add !at (Time.add g.Plan.g_down_for (gap ()))
      done);
  List.rev !events

(* --- arming --------------------------------------------------------- *)

(* The reconvergence sampling period. *)
let check_every = Time.of_ms 50

let arm sched ~target (plan : Plan.t) =
  let reg = Sched.registry sched in
  let m_injected kind =
    Registry.counter reg ~subsystem:"faults"
      ~help:"Faults injected, by kind"
      ~labels:[ ("kind", kind) ]
      "injected_total"
  in
  let m_skipped =
    Registry.counter reg ~subsystem:"faults"
      ~help:"Plan events that did not apply (unknown site or state)"
      "skipped_total"
  in
  let g_outstanding =
    Registry.gauge reg ~subsystem:"faults"
      ~help:"Injected faults not yet matched by a converged observation"
      "outstanding"
  in
  let h_recon =
    Registry.histogram reg ~subsystem:"faults"
      ~help:"Virtual seconds from fault injection to FIBs-complete"
      ~lo:1e-3 ~hi:1e3 "reconvergence_seconds"
  in
  let t =
    {
      sched;
      target;
      seed = plan.Plan.seed;
      rev_trace = [];
      outstanding = [];
      rev_recon = [];
      n_injected = 0;
      n_skipped = 0;
      last_at = None;
      impair_rngs = Hashtbl.create 8;
      m_injected;
      m_skipped;
      g_outstanding;
      h_recon;
    }
  in
  let generated =
    List.concat_map (expand_generator plan.Plan.seed) plan.Plan.generators
  in
  (* Stable merge: explicit events before generated ones at equal
     timestamps, both in their own order. *)
  let all =
    List.stable_sort
      (fun (e1 : Plan.event) e2 -> Time.compare e1.Plan.at e2.Plan.at)
      (plan.Plan.events @ generated)
  in
  List.iter
    (fun (ev : Plan.event) ->
      ignore
        (Sched.schedule_at sched ev.Plan.at (fun () -> fire t ev.Plan.action)))
    all;
  if all <> [] then
    ignore (Sched.every sched check_every (fun () -> check_converged t));
  t

let report_json t =
  let events =
    List.map
      (fun r ->
        Json.Obj
          [
            ("at_s", Json.Float (Time.to_sec r.at));
            ("label", Json.String r.label);
            ("applied", Json.Bool r.applied);
          ])
      (trace t)
  in
  let recon =
    List.map
      (fun (label, at, back) ->
        Json.Obj
          [
            ("label", Json.String label);
            ("injected_s", Json.Float (Time.to_sec at));
            ("reconverged_s", Json.Float (Time.to_sec back));
            ("seconds", Json.Float (Time.to_sec (Time.sub back at)));
          ])
      (reconvergence t)
  in
  Json.Obj
    [
      ("target", Json.String t.target.describe);
      ("injected", Json.Int t.n_injected);
      ("skipped", Json.Int t.n_skipped);
      ("pending", Json.Int (pending t));
      ("events", Json.List events);
      ("reconvergence", Json.List recon);
    ]
