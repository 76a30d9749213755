(* --- Prometheus text format ----------------------------------------- *)

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_nan f then "NaN"
  else Printf.sprintf "%.9g" f

let prom_label_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%S" k (prom_label_escape v))
             labels)
      ^ "}"

let render_entry fmt (e : Registry.entry) =
  let labels = e.Registry.labels in
  match e.Registry.metric with
  | Registry.M_counter c ->
      Format.fprintf fmt "%s%s %d@." e.Registry.name (prom_labels labels)
        (Registry.Counter.value c)
  | Registry.M_gauge g ->
      Format.fprintf fmt "%s%s %s@." e.Registry.name (prom_labels labels)
        (prom_float (Registry.Gauge.value g))
  | Registry.M_histogram h ->
      List.iter
        (fun (le, count) ->
          Format.fprintf fmt "%s_bucket%s %d@." e.Registry.name
            (prom_labels (labels @ [ ("le", prom_float le) ]))
            count)
        (Histogram.cumulative h);
      Format.fprintf fmt "%s_sum%s %s@." e.Registry.name (prom_labels labels)
        (prom_float (Histogram.sum h));
      Format.fprintf fmt "%s_count%s %d@." e.Registry.name (prom_labels labels)
        (Histogram.count h)

(* Entries grouped by metric name, first-seen order preserved — all
   label sets of a name render under one HELP/TYPE header, even when
   they were registered interleaved with other names. *)
let group_by_name entries =
  let tbl = Hashtbl.create 16 in
  let rev_names = ref [] in
  List.iter
    (fun (e : Registry.entry) ->
      match Hashtbl.find_opt tbl e.Registry.name with
      | Some rev -> rev := e :: !rev
      | None ->
          Hashtbl.replace tbl e.Registry.name (ref [ e ]);
          rev_names := e.Registry.name :: !rev_names)
    entries;
  List.rev_map
    (fun name -> (name, List.rev !(Hashtbl.find tbl name)))
    !rev_names

let prometheus fmt registry =
  List.iter
    (fun (name, entries) ->
      (match entries with
      | [] -> ()
      | (e : Registry.entry) :: _ ->
          if e.Registry.help <> "" then
            Format.fprintf fmt "# HELP %s %s@." name e.Registry.help;
          Format.fprintf fmt "# TYPE %s %s@." name
            (match e.Registry.metric with
            | Registry.M_counter _ -> "counter"
            | Registry.M_gauge _ -> "gauge"
            | Registry.M_histogram _ -> "histogram"));
      List.iter (fun e -> render_entry fmt e) entries)
    (group_by_name (Registry.to_list registry))

(* --- JSON views ------------------------------------------------------ *)

let json_of_labels labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let json_of_entry (e : Registry.entry) =
  let common =
    [
      ("name", Json.String e.Registry.name);
      ("labels", json_of_labels e.Registry.labels);
    ]
  in
  match e.Registry.metric with
  | Registry.M_counter c ->
      Json.Obj
        (("type", Json.String "counter")
        :: common
        @ [ ("value", Json.Int (Registry.Counter.value c)) ])
  | Registry.M_gauge g ->
      Json.Obj
        (("type", Json.String "gauge")
        :: common
        @ [ ("value", Json.Float (Registry.Gauge.value g)) ])
  | Registry.M_histogram h ->
      Json.Obj
        (("type", Json.String "histogram")
        :: common
        @ [
            ("count", Json.Int (Histogram.count h));
            ("sum", Json.Float (Histogram.sum h));
            ( "buckets",
              Json.List
                (List.map
                   (fun (le, count) ->
                     Json.Obj
                       [
                         ( "le",
                           if le = Float.infinity then Json.String "+Inf"
                           else Json.Float le );
                         ("count", Json.Int count);
                       ])
                   (Histogram.cumulative h)) );
          ])

let json_of_span (r : Span.record) =
  Json.Obj
    [
      ("type", Json.String "span");
      ("name", Json.String r.Span.name);
      ("depth", Json.Int r.Span.depth);
      ( "parent",
        match r.Span.parent with
        | Some p -> Json.String p
        | None -> Json.Null );
      ("virtual_start_s", Json.Float (Int64.to_float r.Span.start_us /. 1e6));
      ("virtual_end_s", Json.Float (Int64.to_float r.Span.end_us /. 1e6));
      ("virtual_duration_s", Json.Float (Span.virtual_duration_s r));
      ("wall_start_s", Json.Float r.Span.wall_start_s);
      ("wall_end_s", Json.Float r.Span.wall_end_s);
      ("wall_duration_s", Json.Float (Span.wall_duration_s r));
    ]

(* JSON-lines event stream: one object per metric, then one per
   completed span — machine-readable without a streaming parser. *)
let jsonl fmt registry =
  List.iter
    (fun e -> Format.fprintf fmt "%s@." (Json.to_string (json_of_entry e)))
    (Registry.to_list registry);
  List.iter
    (fun r -> Format.fprintf fmt "%s@." (Json.to_string (json_of_span r)))
    (Span.records (Registry.spans registry))

(* Single-object snapshot, for BENCH_*.json artefacts. *)
let json registry =
  Json.Obj
    [
      ( "metrics",
        Json.List (List.map json_of_entry (Registry.to_list registry)) );
      ( "spans",
        Json.List (List.map json_of_span (Span.records (Registry.spans registry)))
      );
    ]

let to_file ~path render registry =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let fmt = Format.formatter_of_out_channel oc in
      render fmt registry;
      Format.pp_print_flush fmt ())

let validate_jsonl_line line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok json -> (
      match Json.member "type" json with
      | Some (Json.String ("counter" | "gauge" | "histogram" | "span")) -> Ok ()
      | Some (Json.String other) -> Error ("unknown record type " ^ other)
      | Some _ | None -> Error "record has no string \"type\" field")
