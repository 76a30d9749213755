(* Classifier smoke: the OpenFlow lookup hierarchy (microflow cache,
   megaflow cache, tuple-space-search slow path) against the preserved
   linear reference scan on a 20k-rule table with skewed
   repeated-flow traffic.

   Gates, failing @classifier-smoke (and @runtest with it):
   - every probed decision is byte-identical to lookup_reference,
     before and after a flow_mod churn phase;
   - >= 5x median lookup speedup over the reference scan;
   - cache hit ratio >= 0.9 on the repeated-flow stream;
   - determinism: two independent runs produce the same decision
     fingerprint and the same hit/miss counter values.

   This smoke, the test_openflow differential and the 100k-rule lookup
   in [bench/main.exe micro] are the classifier's standing
   measurements; the 100k-rule A/B numbers it once had are kept in
   results/history/BENCH_classifier_storm.json.

   Writes the first run's stats to the path given as argv(1). *)

module OF = Horse_openflow
module Time = Horse_engine.Time
module Rng = Horse_engine.Rng
module Wall = Horse_engine.Wall
module Json = Horse_telemetry.Json
module Flow_key = Horse_net.Flow_key
module Ipv4 = Horse_net.Ipv4
module Prefix = Horse_net.Prefix

let n_rules = 20_000
let n_probes = 60_000
let n_churn = 500
let speedup_budget = 5.0
let hit_ratio_budget = 0.9

(* Disjoint address spaces: exact rules in 10/8 -> 11/8, prefix rules
   in 20/8, port rules on ports >= 60000, so loose deletes stay
   surgical. *)
let exact_key i =
  Flow_key.make
    ~src:(Ipv4.of_octets 10 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF))
    ~dst:(Ipv4.of_octets 11 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF))
    ~src_port:(1000 + (i mod 40000))
    ~dst_port:(1000 + ((i * 7) mod 40000))
    ()

let mk_fm ?(command = OF.Ofmsg.Add) ~cookie ~priority match_ =
  {
    OF.Ofmsg.match_;
    cookie;
    command;
    idle_timeout_s = 0;
    hard_timeout_s = 0;
    priority;
    actions = [ OF.Action.Output ((cookie mod 16) + 1) ];
  }

let rule_fm i =
  match i mod 10 with
  | 8 ->
      let j = i / 10 in
      let len = if j mod 10 = 0 then 16 else 24 in
      mk_fm ~cookie:i ~priority:(40 + (j mod 20))
        (OF.Ofmatch.to_dst
           (Prefix.make (Ipv4.of_octets 20 ((j lsr 8) land 0xFF) (j land 0xFF) 0) len))
  | 9 ->
      mk_fm ~cookie:i ~priority:30
        {
          OF.Ofmatch.any with
          OF.Ofmatch.m_ip_proto = Some 17;
          m_tp_dst = Some (60000 + (i / 10 mod 5000));
        }
  | _ -> mk_fm ~cookie:i ~priority:100 (OF.Ofmatch.exact_5tuple (exact_key i))

let fields_of key = OF.Ofmatch.fields_of_key ~in_port:1 key

(* One deterministic probe stream + verify set, shared by every run. *)
let hot =
  Array.init 128 (fun j -> fields_of (exact_key ((j * 37 mod (n_rules / 10)) * 10)))

let warm =
  Array.init 32 (fun j ->
      fields_of
        (Flow_key.make
           ~src:(Ipv4.of_octets 10 9 9 (j land 0xFF))
           ~dst:(Ipv4.of_octets 20 0 (j * 13 mod 40) 9)
           ~src_port:5 ~dst_port:6 ()))

let cold =
  Array.init 32 (fun j ->
      fields_of
        (Flow_key.make
           ~src:(Ipv4.of_octets 30 0 0 1)
           ~dst:(Ipv4.of_octets 30 1 (j land 0xFF) 2)
           ~src_port:7 ~dst_port:8 ()))

let probes =
  let prng = Rng.create 97 in
  Array.init n_probes (fun _ ->
      let r = Rng.int prng 100 in
      if r < 85 then hot.(Rng.int prng 128)
      else if r < 95 then
        let f = warm.(Rng.int prng 32) in
        { f with OF.Ofmatch.in_port = 1 + Rng.int prng 16 }
      else cold.(Rng.int prng 32))

let verify =
  let prng = Rng.create 89 in
  Array.init 300 (fun _ ->
      match Rng.int prng 4 with
      | 0 -> hot.(Rng.int prng 128)
      | 1 -> warm.(Rng.int prng 32)
      | 2 -> cold.(Rng.int prng 32)
      | _ -> fields_of (exact_key (Rng.int prng (2 * n_rules))))

let fingerprint lookup t =
  let buf = Buffer.create 2048 in
  Array.iter
    (fun flds ->
      (match lookup t flds with
      | Some (e : OF.Flow_table.entry) ->
          Buffer.add_string buf (string_of_int e.OF.Flow_table.cookie)
      | None -> Buffer.add_char buf '-');
      Buffer.add_char buf ';')
    verify;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

type outcome = {
  o_speedup : float;
  o_hit_ratio : float;
  o_fp : string;
  o_micro : int;
  o_mega : int;
  o_slow : int;
  o_miss : int;
  o_inv : int;
}

let run () =
  let t = OF.Flow_table.create () in
  for i = 0 to n_rules - 1 do
    OF.Flow_table.apply_flow_mod t ~now:Time.zero (rule_fm i)
  done;
  let fp_fast = fingerprint OF.Flow_table.lookup t in
  let fp_ref = fingerprint OF.Flow_table.lookup_reference t in
  if fp_fast <> fp_ref then begin
    prerr_endline "classifier-smoke: hierarchy diverges from reference";
    exit 1
  end;
  let ref_times =
    List.init 100 (fun k ->
        let f = probes.(k * (n_probes / 100)) in
        let (), dt =
          Wall.time (fun () -> ignore (OF.Flow_table.lookup_reference t f))
        in
        dt)
  in
  let chunk = 1000 in
  let fast_times = ref [] in
  let i = ref 0 in
  while !i + chunk <= n_probes do
    let lo = !i in
    let (), dt =
      Wall.time (fun () ->
          for j = lo to lo + chunk - 1 do
            ignore (OF.Flow_table.lookup t probes.(j))
          done)
    in
    fast_times := (dt /. float_of_int chunk) :: !fast_times;
    i := !i + chunk
  done;
  let speedup = median ref_times /. median !fast_times in
  let st = OF.Flow_table.stats t in
  let hit_ratio =
    float_of_int (st.OF.Flow_table.micro_hits + st.OF.Flow_table.mega_hits)
    /. float_of_int (max 1 st.OF.Flow_table.lookups)
  in
  (* Churn: precise deletes + fresh adds with traffic, then the
     differential again on the mutated table. *)
  let crng = Rng.create 11 in
  for k = 0 to n_churn - 1 do
    (if k mod 3 = 0 then
       let i = Rng.int crng (n_rules / 10) * 10 in
       OF.Flow_table.apply_flow_mod t ~now:Time.zero
         (mk_fm ~command:OF.Ofmsg.Delete ~cookie:0 ~priority:0
            (OF.Ofmatch.exact_5tuple (exact_key i)))
     else
       OF.Flow_table.apply_flow_mod t ~now:Time.zero
         (mk_fm ~cookie:(n_rules + k) ~priority:100
            (OF.Ofmatch.exact_5tuple (exact_key (n_rules + k)))));
    if k mod 7 = 0 then ignore (OF.Flow_table.lookup t hot.(Rng.int crng 128))
  done;
  let fp_fast' = fingerprint OF.Flow_table.lookup t in
  let fp_ref' = fingerprint OF.Flow_table.lookup_reference t in
  if fp_fast' <> fp_ref' then begin
    prerr_endline "classifier-smoke: post-churn hierarchy diverges from reference";
    exit 1
  end;
  {
    o_speedup = speedup;
    o_hit_ratio = hit_ratio;
    o_fp = fp_fast ^ "+" ^ fp_fast';
    o_micro = st.OF.Flow_table.micro_hits;
    o_mega = st.OF.Flow_table.mega_hits;
    o_slow = st.OF.Flow_table.slow_hits;
    o_miss = st.OF.Flow_table.misses;
    o_inv = st.OF.Flow_table.invalidations;
  }

let outcome_json o =
  Json.Obj
    [
      ("speedup", Json.Float o.o_speedup);
      ("hit_ratio", Json.Float o.o_hit_ratio);
      ("fingerprint", Json.String o.o_fp);
      ("microflow_hits", Json.Int o.o_micro);
      ("megaflow_hits", Json.Int o.o_mega);
      ("slow_path_hits", Json.Int o.o_slow);
      ("misses", Json.Int o.o_miss);
      ("invalidations", Json.Int o.o_inv);
    ]

let () =
  let out = Sys.argv.(1) in
  let first = run () in
  (* Determinism: a second run must reproduce decisions and counters
     exactly. *)
  let again = run () in
  if
    again.o_fp <> first.o_fp || again.o_micro <> first.o_micro
    || again.o_mega <> first.o_mega || again.o_slow <> first.o_slow
    || again.o_miss <> first.o_miss
  then begin
    Printf.eprintf "classifier-smoke: repeated run diverged (nondeterminism)\n";
    exit 1
  end;
  let oc = open_out out in
  output_string oc (Json.to_string (outcome_json first));
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "classifier-smoke: speedup %.1fx, hit-ratio %.3f, hits micro/mega/slow \
     %d/%d/%d, misses %d, invalidations %d\n"
    first.o_speedup first.o_hit_ratio first.o_micro first.o_mega first.o_slow
    first.o_miss first.o_inv;
  if first.o_speedup < speedup_budget then begin
    Printf.eprintf "classifier-smoke: speedup budget missed: %.1fx < %.1fx\n"
      first.o_speedup speedup_budget;
    exit 1
  end;
  if first.o_hit_ratio < hit_ratio_budget then begin
    Printf.eprintf "classifier-smoke: hit-ratio budget missed: %.3f < %.2f\n"
      first.o_hit_ratio hit_ratio_budget;
    exit 1
  end
