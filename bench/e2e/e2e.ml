(* bench e2e: one end-to-end benchmark for Horse (see README.md).

     e2e.exe run [--seed N] [--reps N] [--trace FILE] [--out FILE] [--smoke]
     e2e.exe one WORKLOAD [--seed N] [--trace] [--smoke] [--golden FILE]
     e2e.exe bench --workload W --seed N --seconds S --trace 0|1
     e2e.exe compare OLD.json NEW.json
     e2e.exe selftest BENCHMARK.json GOLDEN.json

   Every rep is a fresh child process ([one]), run one after another,
   so set-up is paid cold, and peak RSS and GC counts belong to a
   single run. *)

open Horse_engine
open Horse_core
module Json = Horse_telemetry.Json

let default_golden = "bench/e2e/golden.json"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("e2e: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)
(* ------------------------------------------------------------------ *)

type e2e_metric = {
  e_name : string;
  e_unit : string;
  e_bound : float;  (** worsening allowed, as a share of the old median *)
  e_floor : float;  (** worsening always allowed, in [e_unit] *)
  e_listed : bool;
      (** in BENCHMARK.json: defined, and never 0, on every workload *)
  e_value : Workload.rep -> float option;
}

(* All lower-is-better. converge_s is undefined on megauser-day, which
   has no control plane, so the harness contract (every metric on every
   workload) leaves it to the [run] ledger. *)
let e2e_metrics =
  [
    {
      e_name = "setup_s";
      e_unit = "s";
      e_bound = 0.25;
      e_floor = 0.005;
      e_listed = true;
      e_value = (fun r -> Some r.Workload.setup_s);
    };
    {
      e_name = "run_s";
      e_unit = "s";
      e_bound = 0.20;
      e_floor = 0.0;
      e_listed = true;
      e_value = (fun r -> Some r.Workload.run_s);
    };
    {
      e_name = "converge_s";
      e_unit = "s";
      e_bound = 0.20;
      e_floor = 0.0;
      e_listed = false;
      e_value = (fun r -> r.Workload.converge_s);
    };
    {
      e_name = "peak_rss_mb";
      e_unit = "MB";
      e_bound = 0.05;
      e_floor = 0.0;
      e_listed = true;
      e_value = (fun r -> Some r.Workload.peak_rss_mb);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let parse_args ~valued ~switches args =
  let rec go pos opts = function
    | [] -> (List.rev pos, opts)
    | f :: rest when List.mem f switches -> go pos ((f, "") :: opts) rest
    | f :: v :: rest when List.mem f valued -> go pos ((f, v) :: opts) rest
    | f :: _ when String.length f > 1 && f.[0] = '-' ->
        die "unknown or incomplete option %s" f
    | p :: rest -> go (p :: pos) opts rest
  in
  go [] [] args

let int_opt opts name ~default =
  match List.assoc_opt name opts with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> die "%s expects an integer, got %S" name v)

let workload ~smoke name =
  match Workload.find ~smoke name with
  | Some p -> p
  | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", "
           (List.map (fun p -> p.Workload.name) (Workload.all ~smoke)))

(* ------------------------------------------------------------------ *)
(* Children                                                            *)
(* ------------------------------------------------------------------ *)

let last_line s =
  match
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)
  with
  | [] -> ""
  | lines -> List.nth lines (List.length lines - 1)

let child ~smoke ~golden ~traced ~seed (p : Workload.params) =
  let exe = Sys.executable_name in
  let args =
    [ exe; "one"; p.Workload.name; "--seed"; string_of_int seed; "--golden"; golden ]
    @ (if traced then [ "--trace" ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  match (status, Json.parse (last_line out)) with
  | Unix.WEXITED 0, Ok j -> (
      match Workload.rep_of_json j with
      | Ok r -> r
      | Error e -> die "%s (seed %d): %s" p.Workload.name seed e)
  | _ -> die "%s (seed %d): child run failed" p.Workload.name seed

let failed_checks reps =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (name, ok) -> if ok then None else Some name)
        r.Workload.checks)
    reps

let n_checks reps =
  List.fold_left (fun acc r -> acc + List.length r.Workload.checks) 0 reps

let rep_line name i ~factor (r : Workload.rep) =
  Printf.printf
    "# %s rep %d: setup %.4f s, run %.4f s (reference seconds, speed factor \
     %.3f), %.1f MB, %d/%d checks\n\
     %!"
    name i r.Workload.setup_s r.Workload.run_s factor r.Workload.peak_rss_mb
    (List.length (List.filter snd r.Workload.checks))
    (List.length r.Workload.checks)

(* Runs reps of [p] back to back while [more reps_done last_rep_wall]
   holds, each bracketed by two readings of the speed kernel and
   rescaled to reference seconds. Returns the reps and every kernel
   reading. *)
let calibrated_reps ~smoke ~golden ~traced ~seed ~label p ~more =
  let rec loop reps kernels before last =
    if not (more (List.length reps) last) then (List.rev reps, List.rev kernels)
    else begin
      let start = Wall.now () in
      let r = child ~smoke ~golden ~traced ~seed p in
      let after = Speed.measure () in
      let factor = Speed.factor ~before ~after in
      let r = Workload.rescale factor r in
      rep_line label (List.length reps) ~factor r;
      loop (r :: reps) (after :: kernels) after (Wall.now () -. start)
    end
  in
  let first = Speed.measure () in
  loop [] [ first ] first 0.0

(* ------------------------------------------------------------------ *)
(* one: a single rep, as a child                                       *)
(* ------------------------------------------------------------------ *)

let load_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | s -> (
      match Json.parse s with
      | Ok j -> j
      | Error e -> die "%s: %s" path e)

let one args =
  let pos, opts =
    parse_args ~valued:[ "--seed"; "--golden" ] ~switches:[ "--trace"; "--smoke" ] args
  in
  let smoke = List.mem_assoc "--smoke" opts in
  let p =
    match pos with
    | [ name ] -> workload ~smoke name
    | _ -> die "one: expected exactly one workload name"
  in
  let golden =
    load_json (Option.value (List.assoc_opt "--golden" opts) ~default:default_golden)
  in
  let r =
    Workload.run ~traced:(List.mem_assoc "--trace" opts)
      ~seed:(int_opt opts "--seed" ~default:42)
      ~golden:(Some golden) p
  in
  print_endline (Json.to_string (Workload.rep_to_json r))

(* ------------------------------------------------------------------ *)
(* bench: the harness protocol                                         *)
(* ------------------------------------------------------------------ *)

let median_of values = if values = [] then None else Some (Stats.median values)

(* The metrics a batch reports under the harness contract: every listed
   end-to-end metric (untraced reps) or every listed per-layer metric
   (traced reps), as the median over the batch. *)
let harness_metrics ~traced reps =
  if traced then
    List.filter_map
      (fun (l : Workload.layer_metric) ->
        if not l.Workload.lm_listed then None
        else
          Option.map
            (fun v -> (l.Workload.lm_name, v, l.Workload.lm_unit))
            (median_of
               (List.filter_map
                  (fun r -> List.assoc_opt l.Workload.lm_name r.Workload.layers)
                  reps)))
      Workload.layer_metrics
  else
    List.filter_map
      (fun m ->
        if not m.e_listed then None
        else
          Option.map
            (fun v -> (m.e_name, v, m.e_unit))
            (median_of (List.filter_map m.e_value reps)))
      e2e_metrics

(* Reps run back to back until the next one would end past [seconds]
   (judged by the previous rep's length); there is always at least
   one. *)
let bench args =
  let _, opts =
    parse_args ~valued:[ "--workload"; "--seed"; "--seconds"; "--trace" ]
      ~switches:[] args
  in
  let p =
    match List.assoc_opt "--workload" opts with
    | Some w -> workload ~smoke:false w
    | None -> die "bench: --workload is required"
  in
  let seed = int_opt opts "--seed" ~default:42 in
  let seconds = float_of_int (int_opt opts "--seconds" ~default:10) in
  let traced = int_opt opts "--trace" ~default:0 <> 0 in
  let t0 = Wall.now () in
  let reps, _ =
    calibrated_reps ~smoke:false ~golden:default_golden ~traced ~seed
      ~label:p.Workload.name p
      ~more:(fun n last -> n = 0 || Wall.now () -. t0 +. last <= seconds)
  in
  let failed = List.length (failed_checks reps) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int (n_checks reps));
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.Float v); ("unit", Json.String unit) ] ))
                   (harness_metrics ~traced reps)) );
          ]))

(* ------------------------------------------------------------------ *)
(* run: the ledger                                                     *)
(* ------------------------------------------------------------------ *)

type batch = {
  params : Workload.params;
  reps : Workload.rep list;  (** untraced *)
  traced : Workload.rep option;
  kernel_s : float list;  (** speed-kernel readings around the untraced reps *)
}

let run_batches ~smoke ~golden ~seed ~reps ~trace =
  List.map
    (fun (p : Workload.params) ->
      let untraced, kernel_s =
        calibrated_reps ~smoke ~golden ~traced:false ~seed ~label:p.Workload.name p
          ~more:(fun n _ -> n < reps)
      in
      let traced =
        if trace then
          match
            calibrated_reps ~smoke ~golden ~traced:true ~seed
              ~label:(p.Workload.name ^ " (traced)") p ~more:(fun n _ -> n < 1)
          with
          | [ r ], _ -> Some r
          | _ -> None
        else None
      in
      { params = p; reps = untraced; traced; kernel_s })
    (Workload.all ~smoke)

let summary_json (m : e2e_metric) (s : Stats.summary) =
  Json.Obj
    [
      ("unit", Json.String m.e_unit);
      ("bound", Json.Float m.e_bound);
      ("floor", Json.Float m.e_floor);
      ("median", Json.Float s.Stats.median);
      ("q1", Json.Float s.Stats.q1);
      ("q3", Json.Float s.Stats.q3);
      ("min", Json.Float s.Stats.min);
      ("max", Json.Float s.Stats.max);
      ("n", Json.Int s.Stats.n);
    ]

let summary_of_json j =
  let num name = Workload.json_number (Json.member name j) in
  match (num "median", num "q1", num "q3", num "min", num "max", num "n") with
  | Some median, Some q1, Some q3, Some min, Some max, Some n ->
      Some { Stats.n = int_of_float n; median; q1; q3; min; max }
  | _ -> None

let fail_ratio reps =
  float_of_int (List.length (failed_checks reps))
  /. float_of_int (max 1 (n_checks reps))

(* The traced rep's run_s against the untraced median, in %. *)
let overhead_pct b =
  Option.map
    (fun t ->
      let m = Stats.median (List.map (fun r -> r.Workload.run_s) b.reps) in
      100.0 *. (t.Workload.run_s -. m) /. m)
    b.traced

(* Counters from the median of the untraced reps, span-derived metrics
   from the traced rep. *)
let ledger_layers b =
  List.filter_map
    (fun (l : Workload.layer_metric) ->
      let values =
        if l.Workload.lm_from_spans then
          Option.to_list
            (Option.bind b.traced (fun r ->
                 List.assoc_opt l.Workload.lm_name r.Workload.layers))
        else
          List.filter_map
            (fun r -> List.assoc_opt l.Workload.lm_name r.Workload.layers)
            b.reps
      in
      Option.map
        (fun v -> (l.Workload.lm_name, v, l.Workload.lm_unit))
        (median_of values))
    Workload.layer_metrics

let batch_json b =
  let all_reps = b.reps @ Option.to_list b.traced in
  Json.Obj
    ([
       ("name", Json.String b.params.Workload.name);
       ("params", Workload.params_json b.params);
       ( "e2e",
         Json.Obj
           (List.filter_map
              (fun m ->
                match List.filter_map m.e_value b.reps with
                | [] -> None
                | values -> Some (m.e_name, summary_json m (Stats.summarize values)))
              e2e_metrics) );
       ( "calibration",
         Json.Obj
           [
             ("reference_s", Json.Float Speed.reference_s);
             ("kernel_median_s", Json.Float (Stats.median b.kernel_s));
           ] );
       ( "fail_ratio",
         Json.Obj
           [
             ("value", Json.Float (fail_ratio all_reps));
             ("failed", Json.Int (List.length (failed_checks all_reps)));
             ("checks", Json.Int (n_checks all_reps));
             ( "failed_checks",
               Json.List
                 (List.map (fun s -> Json.String s)
                    (List.sort_uniq compare (failed_checks all_reps))) );
           ] );
       ( "layers",
         Json.Obj
           (List.map
              (fun (name, v, unit) ->
                (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
              (ledger_layers b)) );
     ]
    @
    match (b.traced, overhead_pct b) with
    | Some t, Some overhead ->
        [
          ( "traced",
            Json.Obj
              [
                ("setup_s", Json.Float t.Workload.setup_s);
                ("run_s", Json.Float t.Workload.run_s);
                ("overhead_pct", Json.Float overhead);
              ] );
        ]
    | _ -> [])

let git_rev () =
  match
    Unix.open_process_args_full "git" [| "git"; "rev-parse"; "HEAD" |]
      (Unix.environment ())
  with
  | exception Unix.Unix_error _ -> "unknown"
  | (out, _, err) as p -> (
      let rev = String.trim (In_channel.input_all out) in
      ignore (In_channel.input_all err);
      match Unix.close_process_full p with
      | Unix.WEXITED 0 when rev <> "" -> rev
      | _ -> "unknown")

let print_batch b =
  let name = b.params.Workload.name in
  let line metric v unit = Printf.printf "%-13s %-28s %.6g %s\n" name metric v unit in
  List.iter
    (fun m ->
      match List.filter_map m.e_value b.reps with
      | [] -> ()
      | values -> line m.e_name (Stats.median values) m.e_unit)
    e2e_metrics;
  line "fail_ratio" (fail_ratio (b.reps @ Option.to_list b.traced)) "ratio";
  List.iter (fun (metric, v, unit) -> line metric v unit) (ledger_layers b);
  Option.iter (fun v -> line "trace.overhead_pct" v "%") (overhead_pct b)

let write_json path j =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

let run args =
  let _, opts =
    parse_args ~valued:[ "--seed"; "--reps"; "--trace"; "--out" ]
      ~switches:[ "--smoke" ] args
  in
  let smoke = List.mem_assoc "--smoke" opts in
  let seed = int_opt opts "--seed" ~default:42 in
  (* Ten reps make the quartiles robust to one slow rep on each side,
     which two-set comparisons on a shared box need. *)
  let reps = int_opt opts "--reps" ~default:10 in
  if reps < 1 then die "--reps must be at least 1";
  let trace = List.assoc_opt "--trace" opts in
  let out =
    Option.value (List.assoc_opt "--out" opts) ~default:"results/BENCH_e2e.json"
  in
  let batches =
    run_batches ~smoke ~golden:default_golden ~seed ~reps ~trace:(trace <> None) in
  List.iter print_batch batches;
  write_json out
    (Json.Obj
       [
         ("bench", Json.String "e2e");
         ("git_rev", Json.String (git_rev ()));
         ("cores", Json.Int (Domain.recommended_domain_count ()));
         ("domains", Json.Int 1);
         ("seed", Json.Int seed);
         ("reps", Json.Int reps);
         ("smoke", Json.Bool smoke);
         ("workloads", Json.List (List.map batch_json batches));
       ]);
  Printf.printf "# ledger written to %s\n" out;
  Option.iter
    (fun path ->
      write_json path
        (Spans.chrome_trace
           (List.filter_map
              (fun b ->
                Option.map
                  (fun t -> (b.params.Workload.name, reps, t.Workload.spans))
                  b.traced)
              batches));
      Printf.printf "# Chrome trace written to %s\n" path)
    trace

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* A change beyond the allowed worsening (the larger of the relative
   bound and the absolute floor) in either direction is a verdict; a
   spread (q3 - q1) wider than that allowance on either side is
   unresolved, unless every new rep beats every old one. *)
let judge m (o : Stats.summary) (n : Stats.summary) =
  let allowed = Float.max (m.e_bound *. o.Stats.median) m.e_floor in
  let wide (s : Stats.summary) =
    s.Stats.q3 -. s.Stats.q1 > Float.max (m.e_bound *. s.Stats.median) m.e_floor
  in
  if wide o || wide n then
    if n.Stats.max < o.Stats.min then Better else Unresolved
  else if n.Stats.median > o.Stats.median +. allowed then Worse
  else if n.Stats.median < o.Stats.median -. allowed then Better
  else Unchanged

let compare_ledgers args =
  let old_path, new_path =
    match args with
    | [ o; n ] -> (o, n)
    | _ -> die "compare: expected OLD.json NEW.json"
  in
  let workloads path =
    match Json.member "workloads" (load_json path) with
    | Some (Json.List l) ->
        List.filter_map
          (fun w ->
            match Json.member "name" w with
            | Some (Json.String name) -> Some (name, w)
            | _ -> None)
          l
    | _ -> die "%s: no workloads" path
  in
  let old_w = workloads old_path and new_w = workloads new_path in
  let any_worse = ref false in
  Printf.printf "%-13s %-12s %12s %12s %23s %23s %8s  %s\n" "workload" "metric"
    "old median" "new median" "old q1..q3" "new q1..q3" "delta%" "verdict";
  List.iter
    (fun (name, nw) ->
      match List.assoc_opt name old_w with
      | None -> Printf.printf "%-13s (not in %s)\n" name old_path
      | Some ow ->
          List.iter
            (fun m ->
              let get w =
                Option.bind (Json.member "e2e" w) (fun e ->
                    Option.bind (Json.member m.e_name e) summary_of_json)
              in
              match (get ow, get nw) with
              | Some o, Some n ->
                  let v = judge m o n in
                  if v = Worse then any_worse := true;
                  Printf.printf
                    "%-13s %-12s %12.6g %12.6g %11.5g..%-10.5g %11.5g..%-10.5g \
                     %+7.2f%%  %s\n"
                    name m.e_name o.Stats.median n.Stats.median o.Stats.q1 o.Stats.q3
                    n.Stats.q1 n.Stats.q3
                    (100.0 *. (n.Stats.median -. o.Stats.median) /. o.Stats.median)
                    (verdict_name v)
              | _ -> ())
            e2e_metrics;
          let fr w =
            Option.value ~default:0.0
              (Workload.json_number
                 (Option.bind (Json.member "fail_ratio" w) (Json.member "value")))
          in
          let o = fr ow and n = fr nw in
          let v = if n > o then Worse else if n < o then Better else Unchanged in
          if v = Worse then any_worse := true;
          Printf.printf "%-13s %-12s %12.6g %12.6g %23s %23s %8s  %s\n" name
            "fail_ratio" o n "" "" "" (verdict_name v))
    new_w;
  if !any_worse then exit 1

(* ------------------------------------------------------------------ *)
(* selftest: the runtest gate                                          *)
(* ------------------------------------------------------------------ *)

let selftest args =
  let benchmark_path, golden =
    match args with
    | [ b; g ] -> (b, g)
    | _ -> die "selftest: expected BENCHMARK.json GOLDEN.json"
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* 1. Differential: the bench-built fat-tree workloads equal the
     scenario on every deterministic output. *)
  List.iter
    (fun (p : Workload.params) ->
      let te, faults =
        match p.Workload.kind with
        | Workload.Bgp_fabric -> (Some Scenario.Bgp_ecmp, None)
        | Workload.Bgp_storm ->
            ( Some Scenario.Bgp_ecmp,
              Some
                (Workload.storm_plan ~seed:42
                   (Horse_topo.Fat_tree.build ~k:p.Workload.k ())) )
        | Workload.Sdn_fabric -> (Some Scenario.Sdn_ecmp, None)
        | Workload.Megauser_day -> (None, None)
      in
      Option.iter
        (fun te ->
          let bench = Workload.run ~traced:false ~seed:42 ~golden:None p in
          let scenario =
            Scenario.run_fat_tree_te ~seed:42 ?faults ~pods:p.Workload.k ~te
              ~duration:p.Workload.duration ()
          in
          List.iter
            (fun (key, v) ->
              match List.assoc_opt key bench.Workload.facts with
              | Some b when b = v -> ()
              | b ->
                  fail "%s: %s differs from the scenario (bench %s, scenario %s)"
                    p.Workload.name key
                    (match b with Some b -> Json.to_string b | None -> "-")
                    (Json.to_string v))
            (Workload.scenario_facts scenario))
        te)
    (Workload.all ~smoke:true);
  (* 2. Smoke run: one rep of each workload, traced and untraced, must
     pass every check and emit every metric BENCHMARK.json names. *)
  let bj = load_json benchmark_path in
  let listed key =
    match Json.member key bj with
    | Some (Json.List l) ->
        List.filter_map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.String n), Some (Json.String u) -> Some (n, u, m)
            | _ -> None)
          l
    | _ -> []
  in
  let batches = run_batches ~smoke:true ~golden ~seed:42 ~reps:1 ~trace:true in
  List.iter
    (fun b ->
      let name = b.params.Workload.name in
      List.iter (fun c -> fail "%s: check %s failed" name c)
        (failed_checks (b.reps @ Option.to_list b.traced));
      List.iter
        (fun (key, traced, reps) ->
          let got = harness_metrics ~traced reps in
          List.iter
            (fun (metric, _, _) ->
              if not (List.exists (fun (n, _, _) -> n = metric) got) then
                fail "%s: %s metric %s not emitted" name key metric)
            (listed key))
        [
          ("end_to_end", false, b.reps);
          ("per_layer", true, Option.to_list b.traced);
        ])
    batches;
  (* 3. BENCHMARK.json states what the code measures. *)
  let expect key entries =
    let got = List.map (fun (n, u, _) -> (n, u)) (listed key) in
    if got <> entries then
      fail "BENCHMARK.json %s lists %s; the code reports %s" key
        (String.concat "," (List.map fst got))
        (String.concat "," (List.map fst entries))
  in
  expect "end_to_end"
    (List.filter_map
       (fun m -> if m.e_listed then Some (m.e_name, m.e_unit) else None)
       e2e_metrics);
  expect "per_layer"
    (List.filter_map
       (fun (l : Workload.layer_metric) ->
         if l.Workload.lm_listed then Some (l.Workload.lm_name, l.Workload.lm_unit)
         else None)
       Workload.layer_metrics);
  List.iter
    (fun (n, _, m) ->
      match List.find_opt (fun e -> e.e_name = n) e2e_metrics with
      | Some e when Json.member "bound" m <> Some (Json.Float e.e_bound) ->
          fail "BENCHMARK.json bound of %s differs from %g" n e.e_bound
      | _ -> ())
    (listed "end_to_end");
  List.iter
    (fun (n, _, m) ->
      match
        List.find_opt
          (fun (l : Workload.layer_metric) -> l.Workload.lm_name = n)
          Workload.layer_metrics
      with
      | Some l ->
          let better =
            if l.Workload.lm_higher_is_better then "higher" else "lower"
          in
          if Json.member "better" m <> Some (Json.String better) then
            fail "BENCHMARK.json: %s should be %s-is-better" n better
      | None -> ())
    (listed "per_layer");
  match List.rev !failures with
  | [] -> print_endline "e2e selftest: ok"
  | fs ->
      List.iter prerr_endline fs;
      exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "one" :: args -> one args
  | _ :: "bench" :: args -> bench args
  | _ :: "compare" :: args -> compare_ledgers args
  | _ :: "selftest" :: args -> selftest args
  | _ -> die "usage: e2e.exe run|one|bench|compare|selftest ... (see README.md)"
