module Time = Horse_engine.Time
module Sched = Horse_engine.Sched
module Causal = Horse_engine.Causal
module Span = Horse_telemetry.Span
module Json = Horse_telemetry.Json

(* Streamed emission: one event object per line into an unbounded
   [traceEvents] array, so a large causal graph never materialises as
   one JSON tree. Individual strings go through [Json] for correct
   escaping. *)

type w = { oc : out_channel; mutable first : bool }

let str s = Json.to_string (Json.String s)

let event w fields =
  if w.first then w.first <- false else output_string w.oc ",\n";
  output_char w.oc '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then output_char w.oc ',';
      output_string w.oc (str k);
      output_char w.oc ':';
      output_string w.oc v)
    fields;
  output_char w.oc '}'

let meta w ~pid ?tid ~name value =
  event w
    ([ ("ph", str "M"); ("pid", string_of_int pid) ]
    @ (match tid with Some t -> [ ("tid", string_of_int t) ] | None -> [])
    @ [ ("name", str name); ("args", Printf.sprintf "{\"name\":%s}" (str value)) ])

let pid = 1
let tid_spans = 1
let tid_mode = 2
let tid_causal_base = 10

let slice w ~tid ~name ~cat ~ts ~dur args =
  event w
    ([
       ("ph", str "X");
       ("pid", string_of_int pid);
       ("tid", string_of_int tid);
       ("name", str name);
       ("cat", str cat);
       ("ts", string_of_int ts);
       ("dur", string_of_int (max 1 dur));
     ]
    @ args)

let emit_spans w spans =
  List.iter
    (fun (r : Span.record) ->
      let ts = Int64.to_int r.Span.start_us in
      let dur = Int64.to_int (Int64.sub r.Span.end_us r.Span.start_us) in
      slice w ~tid:tid_spans ~name:r.Span.name ~cat:"span" ~ts ~dur
        [
          ( "args",
            Printf.sprintf "{\"wall_s\":%g}"
              (r.Span.wall_end_s -. r.Span.wall_start_s) );
        ])
    spans

let emit_mode w (transitions : Sched.transition list) end_time =
  let end_us = Time.to_us end_time in
  let emit_segment mode from_us to_us =
    if to_us > from_us then
      slice w ~tid:tid_mode ~name:(Sched.mode_to_string mode) ~cat:"mode"
        ~ts:from_us ~dur:(to_us - from_us) []
  in
  let rec walk mode from_us = function
    | [] -> emit_segment mode from_us end_us
    | (tr : Sched.transition) :: rest ->
        let at = Time.to_us tr.Sched.at in
        emit_segment mode from_us at;
        event w
          [
            ("ph", str "i");
            ("pid", string_of_int pid);
            ("tid", string_of_int tid_mode);
            ("s", str "t");
            ( "name",
              str
                (Printf.sprintf "%s->%s (%s)"
                   (Sched.mode_to_string tr.Sched.from_mode)
                   (Sched.mode_to_string tr.Sched.to_mode)
                   tr.Sched.reason) );
            ("ts", string_of_int at);
            ("cat", str "mode");
          ];
        walk tr.Sched.to_mode at rest
  in
  match transitions with
  | [] -> emit_segment Sched.Des 0 end_us
  | (first : Sched.transition) :: _ ->
      walk first.Sched.from_mode 0 transitions

let kind_track kind =
  match String.index_opt kind ':' with
  | Some i -> String.sub kind 0 i
  | None -> kind

let emit_causal w graph max_events =
  let n = Causal.length graph in
  let lo = max 0 (n - max_events) in
  (* Stable track numbering: tracks in order of first appearance. *)
  let tracks = Hashtbl.create 8 in
  let next = ref tid_causal_base in
  let tid_of kind =
    let track = kind_track kind in
    match Hashtbl.find_opt tracks track with
    | Some tid -> tid
    | None ->
        let tid = !next in
        incr next;
        Hashtbl.add tracks track tid;
        meta w ~pid ~tid ~name:"thread_name" ("causal:" ^ track);
        tid
  in
  (* Only the emitted window is formatted. *)
  Causal.iter ~from:lo graph (fun id info ->
      let tid = tid_of info.Causal.kind in
      let ts = Time.to_us info.Causal.at in
      let name =
        if info.Causal.detail = "" then info.Causal.kind
        else info.Causal.kind ^ " " ^ info.Causal.detail
      in
      slice w ~tid ~name ~cat:"causal" ~ts ~dur:1
        [ ("args", Printf.sprintf "{\"id\":%d,\"parent\":%d}" id info.Causal.parent) ];
      let parent = info.Causal.parent in
      if parent >= lo && not (Causal.is_none parent) then
        match Causal.info graph parent with
        | None -> ()
        | Some p ->
            let ptid = tid_of p.Causal.kind in
            let pts = Time.to_us p.Causal.at in
            let common =
              [
                ("pid", string_of_int pid);
                ("cat", str "causal-flow");
                ("name", str "cause");
                ("id", string_of_int id);
              ]
            in
            event w
              (( "ph", str "s")
              :: ("tid", string_of_int ptid)
              :: ("ts", string_of_int pts)
              :: common);
            event w
              (("ph", str "f") :: ("bp", str "e")
              :: ("tid", string_of_int tid)
              :: ("ts", string_of_int ts)
              :: common));
  if lo > 0 then
    event w
      [
        ("ph", str "i");
        ("pid", string_of_int pid);
        ("tid", string_of_int tid_mode);
        ("s", str "g");
        ("name", str (Printf.sprintf "causal export truncated: first %d nodes omitted" lo));
        ("ts", "0");
        ("cat", str "causal");
      ]

(* The newest causal nodes exported; older ones are dropped. *)
let max_causal_events = 50_000

let write ~path ?graph ~spans ~transitions ~end_time () =
  let oc = open_out path in
  let w = { oc; first = true } in
  output_string oc "{\"traceEvents\":[\n";
  meta w ~pid ~name:"process_name" "horse";
  meta w ~pid ~tid:tid_spans ~name:"thread_name" "spans";
  meta w ~pid ~tid:tid_mode ~name:"thread_name" "scheduler mode (DES/FTI)";
  emit_spans w spans;
  emit_mode w transitions end_time;
  (match graph with
  | Some g -> emit_causal w g max_causal_events
  | None -> ());
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
