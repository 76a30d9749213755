module Counter = struct
  type t = { mutable v : int }

  let make () = { v = 0 }
  let incr t = t.v <- t.v + 1

  let add t n =
    if n < 0 then invalid_arg "Registry.Counter.add: negative increment";
    t.v <- t.v + n

  let value t = t.v
end

module Gauge = struct
  type t = { mutable v : float }

  let make () = { v = 0.0 }
  let set t v = t.v <- v
  let add t d = t.v <- t.v +. d
  let value t = t.v
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

type entry = {
  name : string;  (** full name, [horse_<subsystem>_<name>] *)
  labels : (string * string) list;  (** sorted by label key *)
  help : string;
  metric : metric;
}

type key = string * (string * string) list

type t = {
  tbl : (key, entry) Hashtbl.t;
  mutable rev_order : key list;
  span_tracker : Span.tracker;
}

let create () =
  {
    tbl = Hashtbl.create 64;
    rev_order = [];
    span_tracker = Span.create_tracker ();
  }

let spans t = t.span_tracker

let valid_name s =
  String.length s > 0
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let full_name ~subsystem name =
  if not (valid_name subsystem) then
    invalid_arg ("Registry: bad subsystem name " ^ subsystem);
  if not (valid_name name) then invalid_arg ("Registry: bad metric name " ^ name);
  "horse_" ^ subsystem ^ "_" ^ name

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Get-or-register: the same (name, labels) always yields the same
   metric instance, so independent subsystems can share aggregate
   counters; re-registering under a different kind is a programming
   error. *)
let get_or_register t ~name ~labels ~help make =
  let labels = normalize_labels labels in
  let key = (name, labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some entry -> entry.metric
  | None ->
      let metric = make () in
      Hashtbl.replace t.tbl key { name; labels; help; metric };
      t.rev_order <- key :: t.rev_order;
      metric

let kind_error name ~want metric =
  invalid_arg
    (Printf.sprintf "Registry: %s already registered as a %s, not a %s" name
       (kind_name metric) want)

let counter t ~subsystem ?(help = "") ?(labels = []) name =
  let name = full_name ~subsystem name in
  match
    get_or_register t ~name ~labels ~help (fun () -> M_counter (Counter.make ()))
  with
  | M_counter c -> c
  | m -> kind_error name ~want:"counter" m

let gauge t ~subsystem ?(help = "") ?(labels = []) name =
  let name = full_name ~subsystem name in
  match
    get_or_register t ~name ~labels ~help (fun () -> M_gauge (Gauge.make ()))
  with
  | M_gauge g -> g
  | m -> kind_error name ~want:"gauge" m

let histogram t ~subsystem ?(help = "") ?(labels = []) ~lo
    ~hi name =
  let name = full_name ~subsystem name in
  match
    get_or_register t ~name ~labels ~help (fun () ->
        M_histogram (Histogram.create_log ~lo ~hi ()))
  with
  | M_histogram h -> h
  | m -> kind_error name ~want:"histogram" m

let to_list t =
  List.rev_map (fun key -> Hashtbl.find t.tbl key) t.rev_order

let find t ?(labels = []) name =
  Option.map
    (fun e -> e.metric)
    (Hashtbl.find_opt t.tbl (name, normalize_labels labels))

let find_counter t ?labels name =
  match find t ?labels name with Some (M_counter c) -> Some c | _ -> None

let find_gauge t ?labels name =
  match find t ?labels name with Some (M_gauge g) -> Some g | _ -> None

let find_histogram t ?labels name =
  match find t ?labels name with Some (M_histogram h) -> Some h | _ -> None

let cardinality t = Hashtbl.length t.tbl

