(* Classifier smoke: the flow table's tuple-space search against the
   linear reference scan on a 20k-rule table with skewed
   repeated-flow traffic.

   Gates, failing @classifier-smoke (and @runtest with it):
   - every probed decision is the entry lookup_reference returns,
     before and after a flow_mod churn phase;
   - work: mean classifier buckets probed per lookup on the probe
     stream stays within [probe_budget] (fails when the priority
     short-circuit regresses and every lookup probes every bucket);
   - determinism: two independent runs produce the same decision
     fingerprint and the same hit/miss/probe counter values.

   Wall-time lookup numbers come from [bench/main.exe micro].

   Writes the first run's stats to the path given as argv(1). *)

module OF = Horse_openflow
module Time = Horse_engine.Time
module Rng = Horse_engine.Rng
module Json = Horse_telemetry.Json
module Flow_key = Horse_net.Flow_key
module Ipv4 = Horse_net.Ipv4
module Prefix = Horse_net.Prefix

let n_rules = 20_000
let n_probes = 60_000
let n_churn = 500

(* The table has four buckets (exact 5-tuple, /24 and /16 destination,
   UDP port). With the priority short-circuit the probe stream measures
   1.30 buckets per lookup, since exact hits outrank every other
   bucket; without it every lookup probes all four. *)
let probe_budget = 1.5

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

let lookup_reference = Horse_test_support.lookup_reference

type outcome = {
  o_probes_per_lookup : float;
  o_fp : string;
  o_hits : int;
  o_miss : int;
  o_probes : int;
}

let run () =
  let t = OF.Flow_table.create () in
  for i = 0 to n_rules - 1 do
    OF.Flow_table.apply_flow_mod t ~now:Time.zero (rule_fm i)
  done;
  let fp_fast = fingerprint OF.Flow_table.lookup t in
  let fp_ref = fingerprint lookup_reference t in
  if fp_fast <> fp_ref then begin
    prerr_endline "classifier-smoke: lookup diverges from reference";
    exit 1
  end;
  let st = OF.Flow_table.stats t in
  let probes_before = st.OF.Flow_table.probes in
  Array.iter (fun f -> ignore (OF.Flow_table.lookup t f)) probes;
  let probes_per_lookup =
    float_of_int (st.OF.Flow_table.probes - probes_before) /. float_of_int n_probes
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
  let fp_ref' = fingerprint lookup_reference t in
  if fp_fast' <> fp_ref' then begin
    prerr_endline "classifier-smoke: post-churn lookup diverges from reference";
    exit 1
  end;
  {
    o_probes_per_lookup = probes_per_lookup;
    o_fp = fp_fast ^ "+" ^ fp_fast';
    o_hits = st.OF.Flow_table.hits;
    o_miss = st.OF.Flow_table.misses;
    o_probes = st.OF.Flow_table.probes;
  }

let outcome_json o =
  Json.Obj
    [
      ("probes_per_lookup", Json.Float o.o_probes_per_lookup);
      ("fingerprint", Json.String o.o_fp);
      ("hits", Json.Int o.o_hits);
      ("misses", Json.Int o.o_miss);
      ("probes", Json.Int o.o_probes);
    ]

let () =
  let out = Sys.argv.(1) in
  let first = run () in
  (* Determinism: a second run must reproduce decisions and counters
     exactly. *)
  let again = run () in
  if
    again.o_fp <> first.o_fp || again.o_hits <> first.o_hits
    || again.o_miss <> first.o_miss || again.o_probes <> first.o_probes
  then begin
    Printf.eprintf "classifier-smoke: repeated run diverged (nondeterminism)\n";
    exit 1
  end;
  let oc = open_out out in
  output_string oc (Json.to_string (outcome_json first));
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "classifier-smoke: %.3f buckets probed per lookup (budget %.2f), hits %d, \
     misses %d\n"
    first.o_probes_per_lookup probe_budget first.o_hits first.o_miss;
  if first.o_probes_per_lookup > probe_budget then begin
    Printf.eprintf "classifier-smoke: probe budget missed: %.3f > %.2f\n"
      first.o_probes_per_lookup probe_budget;
    exit 1
  end
