(* Bench-owned spans: wall-time intervals recorded from outside the
   program, around each call into one of its layers. They are kept in
   memory and only written out (as Chrome trace-event JSON) after the
   runs end, so recording costs one clock read per boundary. A
   disabled recorder records nothing: untraced reps pay no span cost. *)

open Horse_engine
module Json = Horse_telemetry.Json

type span = {
  id : int;
  name : string;
  start : float;  (** wall seconds, {!Horse_engine.Wall.now} epoch *)
  stop : float;
  parent : int;  (** id of the enclosing span, -1 at the root *)
}

type t = {
  enabled : bool;
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable spans : span list;  (** newest first *)
}

let create ~enabled = { enabled; next = 0; stack = []; spans = [] }
let enabled t = t.enabled

(* A span whose interval was measured by someone else (e.g. the
   program's own set-up timer). Returns its id, -1 when disabled. *)
let add t ?(parent = -1) ~name ~start ~stop () =
  if not t.enabled then -1
  else begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; name; start; stop; parent } :: t.spans;
    id
  end

let with_span t name f =
  if not t.enabled then f ()
  else begin
    (* The id is taken at entry so that ids follow start order. *)
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Wall.now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Wall.now () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; start; stop; parent } :: t.spans)
      f
  end

let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

(* Self time per span name: each span's duration minus the time its
   direct children cover, summed over every span of that name. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let cur = Option.value (Hashtbl.find_opt covered s.parent) ~default:0.0 in
        Hashtbl.replace covered s.parent (cur +. (s.stop -. s.start)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.0
      in
      let cur = Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0 in
      Hashtbl.replace by_name s.name (cur +. self))
    spans;
  by_name

let to_json spans =
  Json.List
    (List.map
       (fun s ->
         Json.List
           [
             Json.Int s.id;
             Json.String s.name;
             Json.Float s.start;
             Json.Float s.stop;
             Json.Int s.parent;
           ])
       spans)

let of_json j =
  let num = function
    | Json.Float f -> Some f
    | Json.Int i -> Some (float_of_int i)
    | _ -> None
  in
  match j with
  | Json.List l ->
      List.filter_map
        (function
          | Json.List [ Json.Int id; Json.String name; start; stop; Json.Int parent ]
            -> (
              match (num start, num stop) with
              | Some start, Some stop -> Some { id; name; start; stop; parent }
              | _ -> None)
          | _ -> None)
        l
  | _ -> []

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing load: one process per workload, one
   thread per rep, each rep's clock starting at its first span. *)
let chrome_trace (reps : (string * int * span list) list) =
  let pids = Hashtbl.create 8 in
  let pid_of w =
    match Hashtbl.find_opt pids w with
    | Some p -> p
    | None ->
        let p = Hashtbl.length pids + 1 in
        Hashtbl.replace pids w p;
        p
  in
  let events =
    List.concat_map
      (fun (workload, rep, spans) ->
        let pid = pid_of workload in
        let t0 =
          List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity spans
        in
        let us x = Json.Float (1e6 *. x) in
        Json.Obj
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("args", Json.Obj [ ("name", Json.String workload) ]);
          ]
        :: List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("ph", Json.String "X");
                   ("ts", us (s.start -. t0));
                   ("dur", us (s.stop -. s.start));
                   ("pid", Json.Int pid);
                   ("tid", Json.Int rep);
                   ( "args",
                     Json.Obj
                       [
                         ("workload", Json.String workload);
                         ("rep", Json.Int rep);
                         ("span", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                       ] );
                 ])
             spans)
      reps
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]
